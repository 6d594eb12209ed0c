//! Spring-sled kinematics: closed-form time-optimal seeks.
//!
//! The media sled is a spring-mass system driven by electrostatic comb
//! actuators (§2.1). Along each axis the equation of motion during a seek
//! is
//!
//! ```text
//! p̈ = u − ω²·p ,   u ∈ {+a, −a}
//! ```
//!
//! where `a` is the actuator acceleration and `ω` the spring angular
//! frequency (the restoring force `F = k·Δx` of the footnote in §2.3).
//! Under constant `u` the motion is harmonic around the shifted equilibrium
//! `c = u/ω²`, so phase-plane trajectories in `(p, v/ω)` coordinates are
//! circles centered at `(c, 0)` traversed clockwise at constant angular
//! rate ω. A time-optimal two-phase (bang-bang) seek is therefore: follow
//! the circle of one control to its intersection with the circle of the
//! opposite control through the goal state. Both the switch point and the
//! phase durations have closed forms — no numerical integration — which
//! keeps SPTF's per-decision positioning-time queries cheap.
//!
//! This model directly produces the paper's headline behaviours:
//!
//! * seeks near the sled edges take longer than at the center (§2.4.4,
//!   Fig. 9) because the spring fights the actuator on one side;
//! * turnaround time depends on position *and* direction of motion
//!   (§2.3, Table 2: ≈0.07 ms at center, less when the spring assists);
//! * X-seek settle is a separate additive constant (§2.4.2).

use std::f64::consts::{PI, TAU};

/// Tolerance for treating two phase-plane states as identical, in meters.
const POS_EPS: f64 = 1e-12;

/// Angular tolerance below which an arc is treated as empty rather than a
/// full revolution.
const ANGLE_EPS: f64 = 1e-9;

/// Slack beyond the nominal mobility limit allowed during seeks, as a
/// fraction of the half-mobility. The spring suspension tolerates a slight
/// over-travel during edge turnarounds (the paper's minimum turnaround of
/// 0.036 ms requires it); candidate trajectories that swing far outside
/// the device are rejected.
const OVERTRAVEL_SLACK: f64 = 0.05;

/// One axis of the sled: actuator strength, spring stiffness, travel limit.
///
/// # Examples
///
/// ```
/// use mems_device::kinematics::SpringSled;
///
/// // The paper's default axis: a = 803.6 m/s², spring factor 75% over ±50 µm.
/// let sled = SpringSled::from_spring_factor(803.6, 0.75, 50e-6);
/// // A full-stroke rest-to-rest seek takes about half a millisecond...
/// let t = sled.seek_time(-50e-6, 0.0, 50e-6, 0.0);
/// assert!(t > 0.4e-3 && t < 0.65e-3);
/// // ...and a turnaround at the center at access velocity ~0.07 ms (Table 2).
/// let ta = sled.turnaround_time(0.0, 0.028);
/// assert!((ta - 69e-6).abs() < 5e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpringSled {
    /// Actuator acceleration magnitude, m/s².
    accel: f64,
    /// Spring angular frequency ω, rad/s.
    omega: f64,
    /// Nominal travel limit from center, m.
    p_max: f64,
}

impl SpringSled {
    /// Creates an axis with an explicit spring angular frequency.
    ///
    /// # Panics
    ///
    /// Panics unless `accel`, `omega`, and `p_max` are positive and the
    /// actuator can overcome the spring everywhere in the travel range
    /// (`omega² · p_max < accel`).
    pub fn new(accel: f64, omega: f64, p_max: f64) -> Self {
        assert!(accel > 0.0 && omega > 0.0 && p_max > 0.0);
        assert!(
            omega * omega * p_max < accel,
            "spring must not overpower the actuator within the travel range"
        );
        SpringSled {
            accel,
            omega,
            p_max,
        }
    }

    /// Creates an axis from the paper's parameterization: the spring force
    /// reaches `spring_factor × actuator force` at full displacement.
    pub fn from_spring_factor(accel: f64, spring_factor: f64, p_max: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&spring_factor),
            "spring factor must be in [0,1)"
        );
        let omega = (spring_factor * accel / p_max).sqrt();
        Self::new(accel, omega, p_max)
    }

    /// Actuator acceleration magnitude, m/s².
    pub fn accel(&self) -> f64 {
        self.accel
    }

    /// Spring angular frequency, rad/s.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Nominal travel limit from center, m.
    pub fn p_max(&self) -> f64 {
        self.p_max
    }

    /// Instantaneous acceleration under control `u` at position `p`.
    pub fn acceleration(&self, u: f64, p: f64) -> f64 {
        u - self.omega * self.omega * p
    }

    /// Time and reach of the clockwise arc on the circle centered at `c`
    /// from state `(p0, w0)` at phase angle `th0` to position `p1` at angle
    /// `th1`, where `w = v/ω` and a state's angle is `atan2(−w, p − c)`.
    /// Both states must lie on the circle. A zero-length arc takes 0 s.
    ///
    /// The reach is the maximum |p| on the arc, used to reject trajectories
    /// that fly far outside the device.
    fn arc(&self, c: f64, p0: f64, w0: f64, p1: f64, th0: f64, th1: f64) -> (f64, f64) {
        // Clockwise in (p-c, w) space is increasing θ under this sign
        // convention; normalize the sweep into [0, 2π).
        let mut dth = (th1 - th0).rem_euclid(TAU);
        if dth > TAU - ANGLE_EPS {
            dth = 0.0;
        }
        let mut reach = p0.abs().max(p1.abs());
        // Extremes of p on the circle occur at θ = 0 (p = c + r) and θ = π
        // (p = c − r); check whether the swept arc crosses them.
        let th0 = th0.rem_euclid(TAU);
        let crosses_max = (0.0 - th0).rem_euclid(TAU) <= dth;
        let crosses_min = (PI - th0).rem_euclid(TAU) <= dth;
        if crosses_max || crosses_min {
            let r = ((p0 - c).powi(2) + w0 * w0).sqrt();
            if crosses_max {
                reach = reach.max((c + r).abs());
            }
            if crosses_min {
                reach = reach.max((c - r).abs());
            }
        }
        (dth / self.omega, reach)
    }

    /// Time-optimal bang-bang transfer time from `(p0, v0)` to `(p1, v1)`,
    /// in seconds.
    ///
    /// Evaluates both control orderings (+a then −a, and −a then +a) and
    /// both phase-plane intersection branches, rejecting trajectories that
    /// leave the travel range by more than a small slack, and returns the
    /// fastest feasible transfer. Each distinct phase-plane angle is solved
    /// once per ordering and shared by every candidate arc that starts or
    /// ends there: at most 10 `atan2` calls, 5 for a rest-to-rest seek.
    ///
    /// # Panics
    ///
    /// Panics if start or goal position lies outside the travel range.
    pub fn seek_time(&self, p0: f64, v0: f64, p1: f64, v1: f64) -> f64 {
        let lim = self.p_max * (1.0 + OVERTRAVEL_SLACK) + POS_EPS;
        assert!(
            p0.abs() <= lim && p1.abs() <= lim,
            "seek endpoints must lie within the sled travel range"
        );
        if (p0 - p1).abs() < POS_EPS && (v0 - v1).abs() < self.omega * POS_EPS {
            return 0.0;
        }

        let w0 = v0 / self.omega;
        let w1 = v1 / self.omega;
        let slack_lim = self.p_max * (1.0 + OVERTRAVEL_SLACK);

        let mut best = f64::INFINITY;
        let mut best_unchecked = f64::INFINITY;
        for u1_sign in [1.0f64, -1.0] {
            let c1 = u1_sign * self.accel / (self.omega * self.omega);
            let c2 = -c1;
            let r1_sq = (p0 - c1).powi(2) + w0 * w0;
            let r2_sq = (p1 - c2).powi(2) + w1 * w1;
            let th_start = f64::atan2(-w0, p0 - c1);

            // Single-phase candidate: the goal already lies on circle 1.
            let goal_on_c1 = (p1 - c1).powi(2) + w1 * w1;
            if (goal_on_c1 - r1_sq).abs() <= 1e-9 * (r1_sq + POS_EPS) {
                let th_goal = f64::atan2(-w1, p1 - c1);
                let (t, reach) = self.arc(c1, p0, w0, p1, th_start, th_goal);
                if reach <= slack_lim {
                    best = best.min(t);
                }
                best_unchecked = best_unchecked.min(t);
            }

            // Two-phase candidates: circle-1/circle-2 intersections.
            let denom = 2.0 * (c2 - c1);
            debug_assert!(denom.abs() > 0.0);
            let px = (r1_sq - r2_sq + c2 * c2 - c1 * c1) / denom;
            let h_sq = r1_sq - (px - c1).powi(2);
            if h_sq < -1e-18 {
                continue; // circles do not intersect under this ordering
            }
            let h = h_sq.max(0.0).sqrt();
            let th_goal = f64::atan2(-w1, p1 - c2);
            // The switch state (px, ±h) on either circle. atan2 is odd in y,
            // signed zeros included, so the −h angles are the negated +h ones.
            let th_switch1 = f64::atan2(-h, px - c1);
            let th_switch2 = f64::atan2(-h, px - c2);
            for (wx, th_switch1, th_switch2) in
                [(h, th_switch1, th_switch2), (-h, -th_switch1, -th_switch2)]
            {
                let (t1, reach1) = self.arc(c1, p0, w0, px, th_start, th_switch1);
                let (t2, reach2) = self.arc(c2, px, wx, p1, th_switch2, th_goal);
                let t = t1 + t2;
                let reach = reach1.max(reach2);
                if reach <= slack_lim {
                    best = best.min(t);
                }
                best_unchecked = best_unchecked.min(t);
            }
        }
        if best.is_finite() {
            best
        } else {
            // All candidates over-travelled (possible only for contrived
            // states); fall back to the fastest unchecked trajectory.
            debug_assert!(best_unchecked.is_finite(), "no bang-bang solution found");
            best_unchecked
        }
    }

    /// Rest-to-rest seek time between positions, the X-dimension case.
    pub fn rest_seek_time(&self, p0: f64, p1: f64) -> f64 {
        self.seek_time(p0, 0.0, p1, 0.0)
    }

    /// Largest acceleration magnitude any trajectory can experience:
    /// actuator force plus the spring pushing from the overtravel limit,
    /// `a + ω²·p_max·(1 + slack)`.
    pub fn max_acceleration(&self) -> f64 {
        self.accel + self.omega * self.omega * self.p_max * (1.0 + OVERTRAVEL_SLACK)
    }

    /// Lower bound on the time of **any** rest-to-rest seek covering at
    /// least `distance` meters.
    ///
    /// With `|p̈| ≤ a_max` (see [`SpringSled::max_acceleration`]), the
    /// spring-free double-integrator optimum `2·√(d/a_max)` bounds every
    /// feasible trajectory from below, and the bound is nondecreasing in
    /// `distance` — the invariant the pruned SPTF scan relies on.
    pub fn min_rest_seek_time(&self, distance: f64) -> f64 {
        if distance <= 0.0 {
            return 0.0;
        }
        2.0 * (distance / self.max_acceleration()).sqrt()
    }

    /// Rest-to-rest seek time by direct numerical integration, the
    /// independent reference the closed forms are validated against
    /// (see the `validate_kinematics` harness in `mems-bench`).
    ///
    /// Simulates bang-bang motion at step `dt` seconds, bisecting on the
    /// switch position until the deceleration phase ends exactly on the
    /// target. Orders of magnitude slower than [`SpringSled::seek_time`];
    /// use only for validation.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive or the endpoints coincide.
    pub fn rest_seek_time_numeric(&self, p0: f64, p1: f64, dt: f64) -> f64 {
        assert!(dt > 0.0, "step must be positive");
        assert!(
            (p0 - p1).abs() > POS_EPS,
            "numeric seek needs a nonzero stroke"
        );
        let dir = (p1 - p0).signum();
        let simulate = |switch: f64| -> (f64, f64) {
            let (mut p, mut v, mut t) = (p0, 0.0, 0.0);
            while dir * (p - switch) < 0.0 {
                v += self.acceleration(dir * self.accel, p) * dt;
                p += v * dt;
                t += dt;
            }
            while dir * v > 0.0 {
                v += self.acceleration(-dir * self.accel, p) * dt;
                p += v * dt;
                t += dt;
            }
            (p, t)
        };
        let (mut lo, mut hi) = if dir > 0.0 { (p0, p1) } else { (p1, p0) };
        let mut best_t = 0.0;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            let (p_end, t) = simulate(mid);
            best_t = t;
            if dir * (p_end - p1) > 0.0 {
                if dir > 0.0 {
                    hi = mid;
                } else {
                    lo = mid;
                }
            } else if dir > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        best_t
    }

    /// Turnaround time: reverse velocity `v → −v` at position `p`
    /// (returning to the same position), the Y-dimension track-switch case
    /// of §2.3.
    pub fn turnaround_time(&self, p: f64, v: f64) -> f64 {
        self.seek_time(p, v, p, -v)
    }
}

/// Reference solver: every arc solves both endpoint angles for its time and
/// again for its reach, 20 `atan2` calls for a rest-to-rest seek.
/// [`SpringSled::seek_time`] must return the same bits; the tests below
/// compare the two.
#[cfg(test)]
mod reference {
    use super::*;

    impl SpringSled {
        /// Time of the clockwise arc on the circle centered at `c` from state
        /// `(p0, w0)` to `(p1, w1)`, where `w = v/ω`. Both states must lie on
        /// the circle. A zero-length arc returns 0.
        fn arc_time(&self, c: f64, p0: f64, w0: f64, p1: f64, w1: f64) -> f64 {
            let th0 = f64::atan2(-w0, p0 - c);
            let th1 = f64::atan2(-w1, p1 - c);
            // Clockwise in (p-c, w) space is increasing θ under this sign
            // convention; normalize the sweep into [0, 2π).
            let mut dth = th1 - th0;
            dth = dth.rem_euclid(2.0 * std::f64::consts::PI);
            if dth > 2.0 * std::f64::consts::PI - ANGLE_EPS {
                dth = 0.0;
            }
            dth / self.omega
        }

        /// Maximum |p| reached on the clockwise arc described above, used to
        /// reject trajectories that fly far outside the device.
        fn arc_max_abs_pos(&self, c: f64, p0: f64, w0: f64, p1: f64, w1: f64) -> f64 {
            let r = ((p0 - c).powi(2) + w0 * w0).sqrt();
            let th0 = f64::atan2(-w0, p0 - c).rem_euclid(2.0 * std::f64::consts::PI);
            let mut dth = (f64::atan2(-w1, p1 - c) - f64::atan2(-w0, p0 - c))
                .rem_euclid(2.0 * std::f64::consts::PI);
            if dth > 2.0 * std::f64::consts::PI - ANGLE_EPS {
                dth = 0.0;
            }
            let mut max_abs = p0.abs().max(p1.abs());
            // Extremes of p on the circle occur at θ = 0 (p = c + r) and θ = π
            // (p = c − r); check whether the swept arc crosses them.
            for (theta_ext, p_ext) in [(0.0, c + r), (std::f64::consts::PI, c - r)] {
                let offset = (theta_ext - th0).rem_euclid(2.0 * std::f64::consts::PI);
                if offset <= dth {
                    max_abs = max_abs.max(p_ext.abs());
                }
            }
            max_abs
        }

        /// Time-optimal bang-bang transfer time from `(p0, v0)` to `(p1, v1)`,
        /// in seconds.
        ///
        /// Evaluates both control orderings (+a then −a, and −a then +a) and
        /// both phase-plane intersection branches, rejecting trajectories that
        /// leave the travel range by more than a small slack, and returns the
        /// fastest feasible transfer.
        ///
        /// # Panics
        ///
        /// Panics if start or goal position lies outside the travel range.
        pub(super) fn reference_seek_time(&self, p0: f64, v0: f64, p1: f64, v1: f64) -> f64 {
            let lim = self.p_max * (1.0 + OVERTRAVEL_SLACK) + POS_EPS;
            assert!(
                p0.abs() <= lim && p1.abs() <= lim,
                "seek endpoints must lie within the sled travel range"
            );
            if (p0 - p1).abs() < POS_EPS && (v0 - v1).abs() < self.omega * POS_EPS {
                return 0.0;
            }

            let w0 = v0 / self.omega;
            let w1 = v1 / self.omega;
            let slack_lim = self.p_max * (1.0 + OVERTRAVEL_SLACK);

            let mut best = f64::INFINITY;
            let mut best_unchecked = f64::INFINITY;
            for u1_sign in [1.0f64, -1.0] {
                let c1 = u1_sign * self.accel / (self.omega * self.omega);
                let c2 = -c1;
                let r1_sq = (p0 - c1).powi(2) + w0 * w0;
                let r2_sq = (p1 - c2).powi(2) + w1 * w1;

                // Single-phase candidate: the goal already lies on circle 1.
                let goal_on_c1 = (p1 - c1).powi(2) + w1 * w1;
                if (goal_on_c1 - r1_sq).abs() <= 1e-9 * (r1_sq + POS_EPS) {
                    let t = self.arc_time(c1, p0, w0, p1, w1);
                    let reach = self.arc_max_abs_pos(c1, p0, w0, p1, w1);
                    if reach <= slack_lim {
                        best = best.min(t);
                    }
                    best_unchecked = best_unchecked.min(t);
                }

                // Two-phase candidates: circle-1/circle-2 intersections.
                let denom = 2.0 * (c2 - c1);
                debug_assert!(denom.abs() > 0.0);
                let px = (r1_sq - r2_sq + c2 * c2 - c1 * c1) / denom;
                let h_sq = r1_sq - (px - c1).powi(2);
                if h_sq < -1e-18 {
                    continue; // circles do not intersect under this ordering
                }
                let h = h_sq.max(0.0).sqrt();
                for wx in [h, -h] {
                    let t = self.arc_time(c1, p0, w0, px, wx) + self.arc_time(c2, px, wx, p1, w1);
                    let reach = self
                        .arc_max_abs_pos(c1, p0, w0, px, wx)
                        .max(self.arc_max_abs_pos(c2, px, wx, p1, w1));
                    if reach <= slack_lim {
                        best = best.min(t);
                    }
                    best_unchecked = best_unchecked.min(t);
                }
            }
            if best.is_finite() {
                best
            } else {
                // All candidates over-travelled (possible only for contrived
                // states); fall back to the fastest unchecked trajectory.
                debug_assert!(best_unchecked.is_finite(), "no bang-bang solution found");
                best_unchecked
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Mapper;
    use crate::params::MemsParams;
    use proptest::prelude::*;

    fn paper_sled() -> SpringSled {
        SpringSled::from_spring_factor(803.6, 0.75, 50e-6)
    }

    const V_ACCESS: f64 = 0.028;

    /// Cross-validation reference: the public numeric integrator.
    fn numeric_rest_seek(sled: &SpringSled, p0: f64, p1: f64) -> f64 {
        sled.rest_seek_time_numeric(p0, p1, 1e-8)
    }

    #[test]
    fn zero_seek_takes_zero_time() {
        let sled = paper_sled();
        assert_eq!(sled.rest_seek_time(10e-6, 10e-6), 0.0);
        assert_eq!(sled.seek_time(0.0, V_ACCESS, 0.0, V_ACCESS), 0.0);
    }

    #[test]
    fn closed_form_matches_rk4_center_seek() {
        let sled = paper_sled();
        for (p0, p1) in [
            (0.0, 10e-6),
            (0.0, 49e-6),
            (-25e-6, 25e-6),
            (-49e-6, 49e-6),
            (40e-6, 45e-6),
            (45e-6, -20e-6),
        ] {
            let exact = sled.rest_seek_time(p0, p1);
            let numeric = numeric_rest_seek(&sled, p0, p1);
            assert!(
                (exact - numeric).abs() < 0.02 * numeric + 2e-7,
                "seek {p0}->{p1}: exact {exact} vs numeric {numeric}"
            );
        }
    }

    /// Symmetric to rounding only: the solver is not bit-symmetric, which is
    /// why the seek surface stores the whole matrix (see `surface.rs`).
    #[test]
    fn rest_seek_is_symmetric() {
        let sled = paper_sled();
        for (p0, p1) in [(0.0, 30e-6), (-40e-6, 10e-6), (-49e-6, 49e-6)] {
            let fwd = sled.rest_seek_time(p0, p1);
            let rev = sled.rest_seek_time(p1, p0);
            assert!((fwd - rev).abs() < 1e-12, "asymmetric: {fwd} vs {rev}");
            // Mirror symmetry about the center as well.
            let mir = sled.rest_seek_time(-p0, -p1);
            assert!((fwd - mir).abs() < 1e-12);
        }
    }

    #[test]
    fn longer_seeks_take_longer_from_center() {
        let sled = paper_sled();
        let mut last = 0.0;
        for d in 1..=49 {
            let t = sled.rest_seek_time(0.0, d as f64 * 1e-6);
            assert!(t > last, "seek time must grow with distance");
            last = t;
        }
    }

    #[test]
    fn edge_seeks_are_slower_than_center_seeks() {
        // §2.4.4 / Fig. 9: short seeks near the edge take longer because
        // the spring fights the actuator on the outbound stroke.
        let sled = paper_sled();
        let d = 5e-6;
        let center = sled.rest_seek_time(0.0, d);
        let edge = sled.rest_seek_time(44e-6, 44e-6 + d);
        assert!(
            edge > center * 1.05,
            "edge seek {edge} not slower than center {center}"
        );
    }

    #[test]
    fn turnaround_at_center_matches_table_2() {
        // Table 2 reposition = 0.07 ms; caption: average 0.063 ms.
        let sled = paper_sled();
        let t = sled.turnaround_time(0.0, V_ACCESS);
        assert!(
            (t - 69.3e-6).abs() < 2e-6,
            "center turnaround {t} should be ≈69 µs"
        );
    }

    #[test]
    fn turnaround_minimum_is_at_outward_edge() {
        // The paper's 0.036 ms minimum: the spring assists reversal when
        // the sled moves outward at the edge.
        let sled = paper_sled();
        let t = sled.turnaround_time(49e-6, V_ACCESS);
        assert!(t < 45e-6, "spring-assisted turnaround {t} should be <45 µs");
        // Turning around at the edge moving inward is the slow direction.
        let t_slow = sled.turnaround_time(-49e-6, V_ACCESS);
        assert!(
            t_slow > 2.0 * t,
            "spring-opposed turnaround {t_slow} vs assisted {t}"
        );
    }

    #[test]
    fn turnaround_depends_on_direction_of_motion() {
        // §2.4.4: "turnarounds near the edges take either less time or
        // more, depending on the direction of sled motion."
        let sled = paper_sled();
        let outward = sled.turnaround_time(45e-6, V_ACCESS);
        let inward = sled.turnaround_time(45e-6, -V_ACCESS);
        assert!(outward < inward);
        // And by mirror symmetry the signs flip at the other edge.
        let outward_neg = sled.turnaround_time(-45e-6, -V_ACCESS);
        assert!((outward - outward_neg).abs() < 1e-12);
    }

    #[test]
    fn moving_start_seek_beats_or_matches_rest_plus_turnaround() {
        // Seeking from a moving state directly must never be slower than
        // an artificial stop-then-go decomposition.
        let sled = paper_sled();
        let direct = sled.seek_time(-20e-6, V_ACCESS, 30e-6, V_ACCESS);
        let stop_go = sled.seek_time(-20e-6, V_ACCESS, -20e-6, 0.0)
            + sled.seek_time(-20e-6, 0.0, 30e-6, 0.0)
            + sled.seek_time(30e-6, 0.0, 30e-6, V_ACCESS);
        assert!(direct <= stop_go + 1e-12);
    }

    #[test]
    fn full_stroke_seek_is_about_half_a_millisecond() {
        // ≈ 2·sqrt(L/2 / a) ≈ 0.5 ms for the default actuator; with the
        // paper's one settling constant added this is the "0.7 ms" top of
        // the paper's quoted 0.2–0.7 ms seek range (§2.4.2).
        let sled = paper_sled();
        let t = sled.rest_seek_time(-50e-6, 50e-6);
        assert!(t > 0.4e-3 && t < 0.65e-3, "full stroke {t}");
    }

    #[test]
    fn acceleration_includes_spring_term() {
        let sled = paper_sled();
        let a_center = sled.acceleration(sled.accel(), 0.0);
        let a_edge = sled.acceleration(sled.accel(), 50e-6);
        assert_eq!(a_center, 803.6);
        assert!((a_edge - 803.6 * 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "travel range")]
    fn seek_outside_travel_range_panics() {
        let sled = paper_sled();
        let _ = sled.rest_seek_time(0.0, 80e-6);
    }

    #[test]
    #[should_panic(expected = "overpower")]
    fn overpowering_spring_rejected() {
        let _ = SpringSled::new(100.0, 5000.0, 50e-6);
    }

    /// Asserts the solver and its reference agree bit for bit.
    fn assert_matches_reference(sled: &SpringSled, p0: f64, v0: f64, p1: f64, v1: f64) {
        let fast = sled.seek_time(p0, v0, p1, v1);
        let reference = sled.reference_seek_time(p0, v0, p1, v1);
        assert_eq!(
            fast.to_bits(),
            reference.to_bits(),
            "seek ({p0:e}, {v0:e}) -> ({p1:e}, {v1:e}): {fast:e} vs reference {reference:e}"
        );
    }

    /// The paper device's X axis sled and its exact on-grid coordinates.
    fn paper_grid() -> (SpringSled, MemsParams, Mapper) {
        let params = MemsParams::default();
        let sled = SpringSled::from_spring_factor(
            params.accel,
            params.spring_factor,
            params.half_mobility(),
        );
        let mapper = Mapper::new(&params);
        (sled, params, mapper)
    }

    /// Every rest-to-rest X seek between the listed cylinders of the paper
    /// device, on exactly the coordinates the seek surface solves.
    fn check_x_grid(from: impl Iterator<Item = u32>, to: &[u32]) {
        let (sled, _, mapper) = paper_grid();
        for a in from {
            let xa = mapper.x_of_cylinder(a);
            for &b in to {
                assert_matches_reference(&sled, xa, 0.0, mapper.x_of_cylinder(b), 0.0);
            }
        }
    }

    #[test]
    fn solver_matches_reference_on_strided_paper_x_grid() {
        let n = MemsParams::default().geometry().cylinders;
        let edges = [0, 1, n / 2, n - 2, n - 1];
        let to: Vec<u32> = (0..n).step_by(7).chain(edges).collect();
        check_x_grid((0..n).step_by(17).chain(edges), &to);
    }

    /// The full 2500² grid: ~4 s in release, minutes in a debug build.
    /// Run with `cargo test --release -p mems-device --lib -- --ignored`.
    #[test]
    #[ignore]
    fn solver_matches_reference_on_full_paper_x_grid() {
        let n = MemsParams::default().geometry().cylinders;
        let all: Vec<u32> = (0..n).collect();
        check_x_grid(0..n, &all);
    }

    #[test]
    fn solver_matches_reference_on_paper_y_table() {
        let (sled, params, mapper) = paper_grid();
        let v = params.access_velocity();
        let boundaries = params.geometry().rows_per_track + 1;
        for from in 0..boundaries {
            let from_y = mapper.y_of_row_start(from);
            for from_v in [-v, 0.0, v] {
                for to in 0..boundaries {
                    let to_y = mapper.y_of_row_start(to);
                    for to_v in [-v, v] {
                        assert_matches_reference(&sled, from_y, from_v, to_y, to_v);
                    }
                }
            }
        }
    }

    proptest! {
        /// Moving states anywhere in the travel range, with velocities at
        /// rest, at ±the access velocity or arbitrary, plus the turnaround
        /// (`p1 = p0`, `v1 = −v0`) and zero-length special cases.
        #[test]
        fn solver_matches_reference_on_moving_states(
            (a, b) in (-52.5f64..52.5, -52.5f64..52.5),
            (kind0, kind1) in (0u8..4, 0u8..4),
            (r0, r1) in (-0.06f64..0.06, -0.06f64..0.06),
            shape in 0u8..4,
        ) {
            let velocity = |kind: u8, random: f64| match kind {
                0 => 0.0,
                1 => V_ACCESS,
                2 => -V_ACCESS,
                _ => random,
            };
            let (p0, v0) = (a * 1e-6, velocity(kind0, r0));
            let (p1, v1) = match shape {
                0 => (p0, -v0),
                1 => (p0, v0),
                _ => (b * 1e-6, velocity(kind1, r1)),
            };
            let sled = paper_sled();
            let fast = sled.seek_time(p0, v0, p1, v1);
            let reference = sled.reference_seek_time(p0, v0, p1, v1);
            prop_assert_eq!(fast.to_bits(), reference.to_bits());
        }
    }
}
