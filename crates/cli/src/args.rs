//! Minimal `--key value` / `--key=value` argument parsing (no external
//! dependency; the workspace's allowed-crates policy keeps the CLI surface
//! tiny anyway).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// `true` if `tok` looks like a (possibly negative, possibly fractional)
/// number rather than an option. `-1`, `-2.5` and `-1e3` are values;
/// `-v` is not.
fn is_number(tok: &str) -> bool {
    tok.parse::<f64>().is_ok()
}

/// Parsed arguments: a subcommand, an optional operand (second
/// positional, e.g. `profile sort`), plus `--key value` / `--key=value`
/// options and bare `--flag` switches. Every lookup is remembered, so a
/// command can refuse the options it never read ([`Args::unread`]).
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: Option<String>,
    /// The operand (second non-flag token), for commands like
    /// `profile <workload>`.
    pub operand: Option<String>,
    opts: HashMap<String, String>,
    flags: Vec<String>,
    read: RefCell<HashSet<String>>,
    /// Test hook: stop a command where it has read its options, before it
    /// does any work (see `commands::reject_unread`).
    #[cfg(test)]
    pub dry_run: bool,
}

impl Args {
    /// Parse from an iterator of argument tokens (excluding `argv[0]`).
    ///
    /// Accepted shapes: `command`, `--flag`, `--key value`, `--key=value`.
    /// A token following `--key` is taken as its value unless it is itself
    /// an option; numeric tokens are always values, so `--delta -1` parses
    /// as `delta = "-1"` rather than as a flag named `delta` plus a stray
    /// `-1`.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(body) = tok.strip_prefix("--") {
                if body.is_empty() {
                    return Err("empty option name '--'".into());
                }
                if let Some((key, value)) = body.split_once('=') {
                    if key.is_empty() {
                        return Err(format!("empty option name in '{tok}'"));
                    }
                    out.opts.insert(key.to_string(), value.to_string());
                    continue;
                }
                let takes_value = match it.peek() {
                    Some(next) => !next.starts_with('-') || is_number(next),
                    None => false,
                };
                if takes_value {
                    let v = it.next().expect("peeked");
                    out.opts.insert(body.to_string(), v);
                } else {
                    out.flags.push(body.to_string());
                }
            } else if tok.starts_with('-') && !is_number(&tok) {
                return Err(format!("unknown option '{tok}' (options use --name)"));
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else if out.operand.is_none() {
                out.operand = Some(tok);
            } else {
                return Err(format!("unexpected positional argument '{tok}'"));
            }
        }
        Ok(out)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.opts.get(key).map(|s| s.as_str())
    }

    /// A parsed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: '{v}'")),
        }
    }

    /// A bare `--flag`.
    pub fn flag(&self, key: &str) -> bool {
        self.read.borrow_mut().insert(key.to_string());
        self.flags.iter().any(|f| f == key)
    }

    /// The options and flags given that no lookup has read, sorted.
    pub fn unread(&self) -> Vec<&str> {
        let read = self.read.borrow();
        let mut out: Vec<&str> = (self.opts.keys().chain(&self.flags))
            .map(String::as_str)
            .filter(|k| !read.contains(*k))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = Args::parse(toks("sort --n 1000 --algo aem --verbose")).unwrap();
        assert_eq!(a.command.as_deref(), Some("sort"));
        assert_eq!(a.get("n"), Some("1000"));
        assert_eq!(a.get("algo"), Some("aem"));
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn parses_key_equals_value() {
        let a = Args::parse(toks("sort --n=4096 --algo=aem --trace-out=t.jsonl")).unwrap();
        assert_eq!(a.get("n"), Some("4096"));
        assert_eq!(a.get("algo"), Some("aem"));
        assert_eq!(a.get("trace-out"), Some("t.jsonl"));
        assert_eq!(a.get_or("n", 0usize).unwrap(), 4096);
    }

    #[test]
    fn key_equals_empty_value_is_allowed() {
        let a = Args::parse(toks("x --label=")).unwrap();
        assert_eq!(a.get("label"), Some(""));
        assert!(!a.flag("label"));
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let a = Args::parse(toks("bounds --delta -1 --n 100")).unwrap();
        assert_eq!(a.get("delta"), Some("-1"));
        assert_eq!(a.get("n"), Some("100"));
        assert!(!a.flag("delta"));
        let b = Args::parse(toks("x --shift -2.5 --scale -1e3")).unwrap();
        assert_eq!(b.get("shift"), Some("-2.5"));
        assert_eq!(b.get("scale"), Some("-1e3"));
        let c = Args::parse(toks("x --delta=-7")).unwrap();
        assert_eq!(c.get("delta"), Some("-7"));
    }

    #[test]
    fn defaults_and_typed_parsing() {
        let a = Args::parse(toks("sort --n 42")).unwrap();
        assert_eq!(a.get_or("n", 7usize).unwrap(), 42);
        assert_eq!(a.get_or("mem", 64usize).unwrap(), 64);
        assert!(a.get_or::<usize>("n", 0).is_ok());
        let b = Args::parse(toks("sort --n xyz")).unwrap();
        assert!(b.get_or::<usize>("n", 0).is_err());
    }

    #[test]
    fn rejects_stray_positionals_and_empty_options() {
        assert!(Args::parse(toks("sort extra surplus")).is_err());
        assert!(Args::parse(toks("sort --")).is_err());
        assert!(Args::parse(toks("sort --=3")).is_err());
        assert!(Args::parse(toks("sort -v")).is_err());
    }

    #[test]
    fn second_positional_is_the_operand() {
        let a = Args::parse(toks("profile sort --backend vec")).unwrap();
        assert_eq!(a.command.as_deref(), Some("profile"));
        assert_eq!(a.operand.as_deref(), Some("sort"));
        assert_eq!(a.get("backend"), Some("vec"));
        let b = Args::parse(toks("sort --n 8")).unwrap();
        assert_eq!(b.operand, None);
    }

    #[test]
    fn flag_followed_by_flag() {
        let a = Args::parse(toks("x --a --b 3")).unwrap();
        assert!(a.flag("a"));
        assert_eq!(a.get("b"), Some("3"));
    }

    #[test]
    fn flag_at_end_of_line() {
        let a = Args::parse(toks("x --n 5 --verbose")).unwrap();
        assert_eq!(a.get("n"), Some("5"));
        assert!(a.flag("verbose"));
    }

    #[test]
    fn unread_lists_what_no_lookup_touched() {
        let a = Args::parse(toks("run sort --n 8 --dist reversed --verbose --algo=aem")).unwrap();
        assert_eq!(a.unread(), vec!["algo", "dist", "n", "verbose"]);
        assert_eq!(a.get_or("n", 0usize).unwrap(), 8);
        assert_eq!(a.get("algo"), Some("aem"));
        // Looking up an absent key or flag reads it without adding it.
        assert_eq!(a.get("input"), None);
        assert!(!a.flag("quick"));
        assert_eq!(a.unread(), vec!["dist", "verbose"]);
        assert!(a.flag("verbose"));
        assert_eq!(a.unread(), vec!["dist"]);
    }

    #[test]
    fn no_command() {
        let a = Args::parse(toks("--help")).unwrap();
        assert_eq!(a.command, None);
        assert!(a.flag("help"));
    }
}
