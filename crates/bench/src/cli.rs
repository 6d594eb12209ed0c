//! Command-line parsing shared by the experiment binaries.

/// Reads a binary's one optional positional argument, a positive integer
/// such as its request count, or exits.
///
/// With no argument the result is `default`, so argument-free runs are
/// unchanged. A non-numeric or zero value, or any further argument, prints
/// a one-line error and `usage: <bin> [<NAME>]`, then exits with code 2.
pub fn count_arg(bin: &str, name: &str, default: u64) -> u64 {
    match parse_count(std::env::args().skip(1), name, default) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("usage: {bin} [{name}]");
            std::process::exit(2)
        }
    }
}

/// Parses `raw` as a positive integer for `what`, or returns a one-line
/// error naming both.
pub fn positive_count(what: &str, raw: &str) -> Result<u64, String> {
    match raw.parse::<u64>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("invalid {what} {raw}: must be a positive integer")),
    }
}

/// [`count_arg`]'s parsing, without the exit.
fn parse_count(
    args: impl IntoIterator<Item = String>,
    name: &str,
    default: u64,
) -> Result<u64, String> {
    let mut args = args.into_iter();
    let count = match args.next() {
        None => default,
        Some(raw) => positive_count(name, &raw)?,
    };
    match args.next() {
        None => Ok(count),
        Some(extra) => Err(format!("unexpected argument {extra}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<u64, String> {
        parse_count(args.iter().map(|s| s.to_string()), "REQUESTS", 10_000)
    }

    #[test]
    fn missing_argument_keeps_the_default() {
        assert_eq!(parse(&[]), Ok(10_000));
    }

    #[test]
    fn positive_integer_is_taken() {
        assert_eq!(parse(&["1500"]), Ok(1500));
        assert_eq!(parse(&["1"]), Ok(1));
    }

    #[test]
    fn bad_value_and_extra_argument_errors_name_the_input() {
        assert_eq!(
            parse(&["abc"]),
            Err("invalid REQUESTS abc: must be a positive integer".to_string())
        );
        assert!(parse(&["0"]).is_err());
        assert_eq!(
            parse(&["100", "x"]),
            Err("unexpected argument x".to_string())
        );
    }
}
