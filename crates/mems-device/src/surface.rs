//! Fully materialized, immutable seek surface for one parameter set.
//!
//! The memoized [`crate::seek_table::SeekTable`] answers repeated on-grid
//! positioning queries from an LRU cache, but every query still pays a hash
//! probe plus LRU bookkeeping under a `RefCell` borrow, and every parallel
//! sweep cell cold-starts its own cache. A [`SeekSurface`] removes both
//! costs: it solves the *complete* on-grid query space up front — the dense
//! `cylinders × cylinders` rest-to-rest X seek-time matrix and the full
//! row-boundary × direction Y table (~4.7k entries) — so a hot-path query
//! is one bounds-checked array index, and the surface is immutable, so one
//! `Arc<SeekSurface>` is shared read-only across every cell and worker
//! thread of a sweep.
//!
//! Entries are bit-identical to the memo table's cached solves: both are
//! produced by the same closed-form solver applied to the exact mapper
//! coordinates (`x_of_cylinder`, `y_of_row_start`, ±the access velocity),
//! which are the only on-grid states a simulation ever reaches (the sled
//! lands exactly on those floats after every request). Off-grid states
//! (e.g. the centered initial state) never consult the surface and fall
//! back to the direct solver, exactly as the memo table does.
//!
//! The X matrix is `cylinders² × 8` bytes — ≈50 MB for the paper's
//! 2500-cylinder device — so construction is parallelized across matrix
//! rows and refused entirely (returning `None`) for exotic geometries whose
//! matrix would exceed [`SeekSurface::MAX_X_MATRIX_BYTES`]; callers then
//! stay on the memo table.
//!
//! The matrix is stored whole, not as a half or quarter, because the
//! solver is symmetric only to rounding, not bit for bit. On the paper
//! device `x_seek(a, b)` and `x_seek(b, a)` differ in the last bits for
//! 4 617 768 of the 6.25 M pairs, and mirrored pairs (`a, b` against
//! `n−1−a, n−1−b`) for 5 052 468; the largest gap is ~5e-17 s. Serving
//! either half from the other would move every digest.

use std::fmt;
use std::thread;

use crate::geometry::Mapper;
use crate::kinematics::SpringSled;
use crate::params::MemsParams;
use crate::seek_table::YKey;

/// Immutable dense table of every on-grid seek solve for one [`MemsParams`].
///
/// Build once (optionally behind a process-wide registry), wrap in an
/// `Arc`, and attach to any number of `MemsDevice` instances via
/// `MemsDevice::with_seek_surface`; lookups are plain array indexing and
/// take `&self`, so the surface is freely shared across threads.
///
/// # Examples
///
/// ```
/// use mems_device::{MemsParams, SeekSurface};
///
/// let params = MemsParams::default();
/// let surface = SeekSurface::build(&params).expect("paper device fits the guard");
/// // Seeking from a cylinder to itself is instantaneous...
/// assert_eq!(surface.x_seek(7, 7), 0.0);
/// // ...and a full-stroke seek takes about half a millisecond.
/// assert!(surface.x_seek(0, 2499) > 0.4e-3);
/// ```
pub struct SeekSurface {
    params: MemsParams,
    cylinders: u32,
    /// Row-boundary indices per track: `rows_per_track + 1`.
    boundaries: u32,
    /// Rest-to-rest X seek times, row-major `[from * cylinders + to]`.
    x: Box<[f64]>,
    /// Y boundary-to-boundary seek times, see [`SeekSurface::y_index`].
    y: Box<[f64]>,
}

impl SeekSurface {
    /// Hard cap on the dense X matrix size (256 MB ≈ 5800 cylinders).
    /// [`SeekSurface::build`] refuses larger geometries so a misconfigured
    /// parameter sweep degrades to the memo table instead of allocating an
    /// oversized matrix.
    pub const MAX_X_MATRIX_BYTES: u64 = 256 << 20;

    /// Size in bytes of the dense X matrix `params` would require.
    pub fn x_matrix_bytes(params: &MemsParams) -> u64 {
        let n = u64::from(params.geometry().cylinders);
        n * n * std::mem::size_of::<f64>() as u64
    }

    /// Builds the complete surface for `params`, solving X-matrix rows in
    /// parallel across the available cores. Returns `None` when the X
    /// matrix would exceed [`SeekSurface::MAX_X_MATRIX_BYTES`].
    pub fn build(params: &MemsParams) -> Option<Self> {
        Self::build_with_limit(params, Self::MAX_X_MATRIX_BYTES)
    }

    /// [`SeekSurface::build`] with an explicit X-matrix size cap in bytes.
    pub fn build_with_limit(params: &MemsParams, max_x_bytes: u64) -> Option<Self> {
        if Self::x_matrix_bytes(params) > max_x_bytes {
            return None;
        }
        let geom = params.geometry();
        let mapper = Mapper::new(params);
        let sled = SpringSled::from_spring_factor(
            params.accel,
            params.spring_factor,
            params.half_mobility(),
        );

        let n = geom.cylinders as usize;
        let mut x = vec![0.0f64; n * n].into_boxed_slice();
        let workers = thread::available_parallelism()
            .map(|w| w.get())
            .unwrap_or(1)
            .clamp(1, n);
        let rows_per_worker = n.div_ceil(workers);
        thread::scope(|scope| {
            for (i, block) in x.chunks_mut(rows_per_worker * n).enumerate() {
                let first_row = (i * rows_per_worker) as u32;
                let mapper = &mapper;
                let sled = &sled;
                scope.spawn(move || {
                    for (r, row) in block.chunks_mut(n).enumerate() {
                        // Exactly the memo table's solve: the queried
                        // on-grid start is the mapper's cylinder center.
                        let from_x = mapper.x_of_cylinder(first_row + r as u32);
                        for (to, cell) in row.iter_mut().enumerate() {
                            *cell = sled.rest_seek_time(from_x, mapper.x_of_cylinder(to as u32));
                        }
                    }
                });
            }
        });

        // The Y table is tiny (~4.7k entries for the paper device); solve
        // it serially. Directions: -v, rest, +v for the start; the target
        // is always approached at ±the access velocity.
        let boundaries = geom.rows_per_track + 1;
        let b = boundaries as usize;
        let v = params.access_velocity();
        let mut y = vec![0.0f64; b * 3 * b * 2].into_boxed_slice();
        for from_b in 0..b {
            let from_y = mapper.y_of_row_start(from_b as u32);
            for (fdir, from_vy) in [(0usize, -v), (1, 0.0), (2, v)] {
                for to_b in 0..b {
                    let to_y = mapper.y_of_row_start(to_b as u32);
                    for (tdir, to_vy) in [(0usize, -v), (1, v)] {
                        y[((from_b * 3 + fdir) * b + to_b) * 2 + tdir] =
                            sled.seek_time(from_y, from_vy, to_y, to_vy);
                    }
                }
            }
        }

        Some(SeekSurface {
            params: params.clone(),
            cylinders: geom.cylinders,
            boundaries,
            x,
            y,
        })
    }

    /// The parameter set this surface was solved for.
    pub fn params(&self) -> &MemsParams {
        &self.params
    }

    /// Number of cylinders (side length of the X matrix).
    pub fn cylinders(&self) -> u32 {
        self.cylinders
    }

    /// Total resident size of both tables in bytes.
    pub fn bytes(&self) -> u64 {
        ((self.x.len() + self.y.len()) * std::mem::size_of::<f64>()) as u64
    }

    /// X rest-seek time from cylinder `from` to cylinder `to`.
    ///
    /// # Panics
    ///
    /// Panics if either cylinder is out of range.
    #[inline]
    pub fn x_seek(&self, from: u32, to: u32) -> f64 {
        debug_assert!(from < self.cylinders && to < self.cylinders);
        self.x[from as usize * self.cylinders as usize + to as usize]
    }

    /// Y seek time for the quantized endpoints `key` (the same key the memo
    /// table uses: row-boundary indices plus velocity directions, where the
    /// target direction is ±1).
    ///
    /// # Panics
    ///
    /// Panics if a boundary index or direction is out of range.
    #[inline]
    pub fn y_seek(&self, key: YKey) -> f64 {
        self.y[self.y_index(key)]
    }

    /// Flat index of `key`: `((from · 3 + (from_dir+1)) · boundaries + to)
    /// · 2 + (to_dir > 0)`.
    #[inline]
    fn y_index(&self, key: YKey) -> usize {
        debug_assert!(u32::from(key.from_boundary) < self.boundaries);
        debug_assert!(u32::from(key.to_boundary) < self.boundaries);
        debug_assert!((-1..=1).contains(&key.from_dir));
        debug_assert!(key.to_dir == -1 || key.to_dir == 1);
        let b = self.boundaries as usize;
        (usize::from(key.from_boundary) * 3 + (key.from_dir + 1) as usize) * b * 2
            + usize::from(key.to_boundary) * 2
            + usize::from(key.to_dir > 0)
    }
}

impl fmt::Debug for SeekSurface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeekSurface")
            .field("cylinders", &self.cylinders)
            .field("boundaries", &self.boundaries)
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A geometrically valid but small device (200 cylinders, 2 rows per
    /// track) so exhaustive checks stay fast.
    fn small_params() -> MemsParams {
        MemsParams {
            bit_width: 500e-9,
            per_tip_rate: 56e3, // keep the access velocity at 28 mm/s
            ..MemsParams::default()
        }
    }

    #[test]
    fn small_geometry_sanity() {
        let g = small_params().geometry();
        assert_eq!(g.cylinders, 200);
        assert_eq!(g.rows_per_track, 2);
    }

    #[test]
    fn x_matrix_matches_direct_solver_bitwise() {
        let params = small_params();
        let s = SeekSurface::build(&params).expect("small device fits");
        let mapper = Mapper::new(&params);
        let sled = SpringSled::from_spring_factor(
            params.accel,
            params.spring_factor,
            params.half_mobility(),
        );
        for from in (0..200).step_by(7) {
            for to in (0..200).step_by(3) {
                let direct =
                    sled.rest_seek_time(mapper.x_of_cylinder(from), mapper.x_of_cylinder(to));
                assert_eq!(
                    s.x_seek(from, to).to_bits(),
                    direct.to_bits(),
                    "x_seek({from}, {to}) differs from the direct solve"
                );
            }
        }
        assert_eq!(s.x_seek(42, 42), 0.0);
    }

    #[test]
    fn y_table_matches_direct_solver_bitwise() {
        let params = small_params();
        let s = SeekSurface::build(&params).expect("small device fits");
        let mapper = Mapper::new(&params);
        let sled = SpringSled::from_spring_factor(
            params.accel,
            params.spring_factor,
            params.half_mobility(),
        );
        let v = params.access_velocity();
        let boundaries = params.geometry().rows_per_track + 1;
        for from_b in 0..boundaries as u16 {
            for from_dir in [-1i8, 0, 1] {
                for to_b in 0..boundaries as u16 {
                    for to_dir in [-1i8, 1] {
                        let key = YKey {
                            from_boundary: from_b,
                            from_dir,
                            to_boundary: to_b,
                            to_dir,
                        };
                        let direct = sled.seek_time(
                            mapper.y_of_row_start(u32::from(from_b)),
                            f64::from(from_dir) * v,
                            mapper.y_of_row_start(u32::from(to_b)),
                            f64::from(to_dir) * v,
                        );
                        assert_eq!(
                            s.y_seek(key).to_bits(),
                            direct.to_bits(),
                            "y_seek({key:?}) differs from the direct solve"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn size_guard_refuses_oversized_matrices() {
        // 1 nm bit cells give 100_000 cylinders — an 80 GB X matrix.
        let huge = MemsParams {
            bit_width: 1e-9,
            ..MemsParams::default()
        };
        assert!(SeekSurface::x_matrix_bytes(&huge) > SeekSurface::MAX_X_MATRIX_BYTES);
        assert!(SeekSurface::build(&huge).is_none());
        // The same guard, exercised without a big allocation: a tight
        // explicit limit refuses even the small device...
        let params = small_params();
        assert!(SeekSurface::build_with_limit(&params, 1024).is_none());
        // ...while a sufficient limit accepts it.
        assert!(SeekSurface::build_with_limit(&params, u64::MAX).is_some());
    }

    #[test]
    fn reports_its_own_footprint() {
        let s = SeekSurface::build(&small_params()).expect("small device fits");
        // 200² X entries + (2+1)·3·(2+1)·2 Y entries, 8 bytes each.
        assert_eq!(s.bytes(), (200 * 200 + 3 * 3 * 6) * 8);
        assert_eq!(s.cylinders(), 200);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("cylinders: 200"), "{dbg}");
    }
}
