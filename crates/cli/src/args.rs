//! Minimal argument splitting: leading positionals, then `--key value`
//! flags in any order.

/// Parsed command arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Split `argv` into positionals and flags.
    ///
    /// Returns an error on a flag without a value, a flag given twice, or a
    /// positional after a flag (keeps the grammar unambiguous: a repeated
    /// flag would otherwise silently keep only one of its values).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = argv.iter();
        let mut seen_flag = false;
        while let Some(token) = iter.next() {
            if let Some(key) = token.strip_prefix("--") {
                seen_flag = true;
                let value = iter
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                if args.flag(key).is_some() {
                    return Err(format!("flag --{key} given more than once"));
                }
                args.flags.push((key.to_string(), value.clone()));
            } else {
                if seen_flag {
                    return Err(format!(
                        "positional {token:?} after flags — put positionals first"
                    ));
                }
                args.positionals.push(token.clone());
            }
        }
        Ok(args)
    }

    /// Positional at `index`, or an error naming it.
    pub fn positional(&self, index: usize, name: &str) -> Result<&str, String> {
        self.positionals
            .get(index)
            .map(String::as_str)
            .ok_or_else(|| format!("missing argument <{name}>"))
    }

    /// Raw flag value.
    pub fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Typed flag with default.
    pub fn flag_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flag(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse::<T>()
                .map_err(|_| format!("bad value for --{key}: {raw:?}")),
        }
    }

    /// Reject surplus positionals (silent-argument guard): every command
    /// states how many it takes, and anything beyond that is a user error,
    /// not noise to ignore.
    pub fn expect_positionals(&self, n: usize, shape: &str) -> Result<(), String> {
        if self.positionals.len() > n {
            return Err(format!(
                "unexpected argument {:?} — usage: {shape}",
                self.positionals[n]
            ));
        }
        Ok(())
    }

    /// Reject flags outside the allowed set (typo guard).
    pub fn ensure_known_flags(&self, allowed: &[&str]) -> Result<(), String> {
        for (key, _) in &self.flags {
            if !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "unknown flag --{key} (allowed: {})",
                    allowed
                        .iter()
                        .map(|f| format!("--{f}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn splits_positionals_and_flags() {
        let a = Args::parse(&argv(&["video", "scheme", "--traces", "10"])).unwrap();
        assert_eq!(a.positional(0, "video").unwrap(), "video");
        assert_eq!(a.positional(1, "scheme").unwrap(), "scheme");
        assert_eq!(a.flag("traces"), Some("10"));
        assert_eq!(a.flag_parsed::<usize>("traces", 200).unwrap(), 10);
        assert_eq!(a.flag_parsed::<usize>("seed", 42).unwrap(), 42);
    }

    #[test]
    fn rejects_flag_without_value() {
        assert!(Args::parse(&argv(&["x", "--traces"])).is_err());
    }

    #[test]
    fn rejects_positional_after_flag() {
        assert!(Args::parse(&argv(&["--traces", "10", "video"])).is_err());
    }

    #[test]
    fn rejects_bad_typed_value() {
        let a = Args::parse(&argv(&["--traces", "ten"])).unwrap();
        assert!(a.flag_parsed::<usize>("traces", 200).is_err());
    }

    #[test]
    fn unknown_flag_guard() {
        let a = Args::parse(&argv(&["--tracs", "10"])).unwrap();
        assert!(a.ensure_known_flags(&["traces"]).is_err());
        assert!(a.ensure_known_flags(&["tracs"]).is_ok());
    }

    #[test]
    fn surplus_positionals_are_rejected() {
        let a = Args::parse(&argv(&["video", "scheme", "extra"])).unwrap();
        let err = a.expect_positionals(2, "run <video> <scheme>").unwrap_err();
        assert!(err.contains("extra"));
        assert!(err.contains("run <video> <scheme>"));
        assert!(a.expect_positionals(3, "x").is_ok());
    }

    #[test]
    fn missing_positional_names_it() {
        let a = Args::parse(&argv(&[])).unwrap();
        let err = a.positional(0, "video").unwrap_err();
        assert!(err.contains("video"));
    }
}
