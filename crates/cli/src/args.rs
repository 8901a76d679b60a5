//! Minimal option parsing for the CLI (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: positional arguments plus `--key value` /
/// `--flag` options.
#[derive(Debug, Default)]
pub struct Parsed {
    pub positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Parsing error with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parses `args`; `value_opts` lists options that take a value, `flag_opts`
/// those that do not.
pub fn parse(args: &[String], value_opts: &[&str], flag_opts: &[&str]) -> Result<Parsed, ArgError> {
    let mut out = Parsed::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if flag_opts.contains(&name) {
                out.flags.push(name.to_string());
            } else if value_opts.contains(&name) {
                let v = it
                    .next()
                    .ok_or_else(|| ArgError(format!("--{name} requires a value")))?;
                out.options.insert(name.to_string(), v.clone());
            } else {
                return Err(ArgError(format!("unknown option --{name}")));
            }
        } else {
            out.positional.push(a.clone());
        }
    }
    Ok(out)
}

impl Parsed {
    /// String option value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Integer option value.
    pub fn get_u32(&self, name: &str) -> Result<Option<u32>, ArgError> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| ArgError(format!("--{name}: `{v}` is not an integer"))),
        }
    }

    /// Names of every option and flag given, in no particular order.
    pub fn given(&self) -> impl Iterator<Item = &str> {
        self.options.keys().chain(&self.flags).map(String::as_str)
    }

    /// Whether a flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn positionals_options_and_flags_separate() {
        let p = parse(
            &s(&["run", "a.s", "--pfus", "2", "--greedy"]),
            &["pfus"],
            &["greedy"],
        )
        .unwrap();
        assert_eq!(p.positional, vec!["run", "a.s"]);
        assert_eq!(p.get("pfus"), Some("2"));
        assert!(p.flag("greedy"));
        assert!(!p.flag("selective"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = parse(&s(&["--pfus"]), &["pfus"], &[]).unwrap_err();
        assert!(e.0.contains("requires a value"));
    }

    #[test]
    fn unknown_option_is_an_error() {
        let e = parse(&s(&["--bogus"]), &["pfus"], &["greedy"]).unwrap_err();
        assert!(e.0.contains("unknown option"));
    }

    #[test]
    fn numeric_accessors_validate() {
        let p = parse(&s(&["--pfus", "zz"]), &["pfus"], &[]).unwrap();
        assert!(p.get_u32("pfus").is_err());
        let p = parse(&s(&["--pfus", "4"]), &["pfus"], &[]).unwrap();
        assert_eq!(p.get_u32("pfus").unwrap(), Some(4));
        assert_eq!(p.get_u32("absent").unwrap(), None);
    }
}
