//! The workspace's one JSON value, writer, parser and field-table codec.
//!
//! The workspace has no external dependencies, so every JSON document it
//! reads or writes goes through this module: `aem-serve`'s wire frames,
//! admission log and metering report, `RunRecord` JSONL traces, fuzz seed
//! files, `COSTS.json` and the hostbench reports.
//!
//! # Parser
//!
//! [`parse`] reads one RFC 8259 document and rejects everything else:
//!
//! * numbers follow the RFC grammar (no leading zeros, no bare `1.` or
//!   `.5`) and must be finite, so `1e400` is an error; integers below 2^64
//!   parse as [`Json::UInt`], so `u64` costs never pass through `f64`;
//! * a `\u` escape takes exactly four hex digits;
//! * arrays and objects nest at most [`MAX_DEPTH`] deep, so a hostile
//!   frame of `[[[[…` cannot overflow a connection thread's stack in this
//!   recursive parser: past the cap, `parse` returns [`ObsError::Parse`].
//!
//! # Field tables
//!
//! A wire or log type names each field once, in a [`Table`] that drives
//! both its encoder and its decoder:
//!
//! ```
//! use aem_obs::json::{parse, Field};
//!
//! aem_obs::json_table! {
//!     #[derive(Debug, PartialEq)]
//!     struct Job {
//!         id: u64,                        // required
//!         tenant: String as "who",        // required, under another key
//!         delta: usize = 0,               // `0` when absent
//!         backend: Option<String> = omit, // left out when `None`
//!     }
//! }
//!
//! let job = Job { id: 1, tenant: "a".into(), delta: 0, backend: None };
//! assert_eq!(job.to_json().to_string_compact(), r#"{"id":1,"who":"a","delta":0}"#);
//! assert_eq!(Job::from_json(&parse(r#"{"id":1,"who":"a"}"#).unwrap()), Ok(job));
//! ```
//!
//! Fields are written in table order. `= flat` splices a nested table's
//! fields in; `= (via W)` does so through table type `W`, converting with
//! `From`. Without `struct`, `json_table!(Type { fields })` gives a type
//! declared elsewhere a table. A tagged enum lists `Name = "tag"`,
//! `Name = "tag" { fields }` or `Name = "tag" (Payload rule)` per variant
//! and gets inherent `to_json`/`from_json`. Every read error names its key.

use aem_core::workload::WorkloadKind;
use aem_machine::Cost;

use crate::error::ObsError;

/// How deep arrays and objects may nest in a parsed document. The deepest
/// document the workspace writes (a `hello_ok` that drained a batch) nests
/// about 5 deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// Unsigned integers get their own variant so that `u64` quantities (costs,
/// block indices) survive a serialize → parse round trip exactly, without
/// passing through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case in trace records).
    UInt(u64),
    /// Any other number (negative or fractional).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an unsigned integer (or an integral
    /// non-negative float below 2^64).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Num(v) if v >= 0.0 && v.fract() == 0.0 && v < 18_446_744_073_709_551_616.0 => {
                Some(v as u64)
            }
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(v) => Some(v as f64),
            Json::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to compact JSON (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Num(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    // JSON has no Inf/NaN; emit null rather than invalid text.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document from `input` (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, ObsError> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The document; the parser only stops on ASCII bytes, so every
    /// slice it takes lies on character boundaries.
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ObsError {
        ObsError::Parse {
            offset: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.eat(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r')) {}
    }

    fn expect(&mut self, b: u8) -> Result<(), ObsError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ObsError> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ObsError> {
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.container(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.container(b']', |p| p.value().map(|v| items.push(v)))?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// An array or object: the opening bracket (at `pos`), then `item`s
    /// separated by commas up to `close`, at most [`MAX_DEPTH`] deep.
    fn container(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ObsError>,
    ) -> Result<(), ObsError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        let mut more = self.peek() != Some(close);
        while more {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            more = self.peek() == Some(b',');
            if more {
                self.pos += 1;
            } else if self.peek() != Some(close) {
                return Err(self.err(&format!("expected ',' or '{}'", close as char)));
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, ObsError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: consume a run of plain bytes.
            while self.eat(|b| b != b'"' && b != b'\\' && b >= 0x20) {}
            s.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = (self.text.as_bytes())
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .ok_or_else(|| self.err("\\u needs four hex digits"))?;
                            let code = hex
                                .iter()
                                .fold(0, |acc, &h| acc * 16 + (h as char).to_digit(16).unwrap());
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Consume one byte if `pred` accepts it.
    fn eat(&mut self, pred: impl Fn(u8) -> bool) -> bool {
        let hit = self.peek().is_some_and(pred);
        self.pos += hit as usize;
        hit
    }

    /// Consume one or more ASCII digits; `false` if there were none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.eat(|b| b.is_ascii_digit()) {}
        self.pos > start
    }

    /// RFC 8259 §6: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, ObsError> {
        let start = self.pos;
        let negative = self.eat(|b| b == b'-');
        if !self.eat(|b| b == b'0') && !self.digits() {
            return Err(self.err("number needs an integer part"));
        }
        let point = self.eat(|b| b == b'.');
        if point && !self.digits() {
            return Err(self.err("number needs digits after '.'"));
        }
        let exponent = self.eat(|b| b == b'e' || b == b'E');
        if exponent {
            self.eat(|b| b == b'+' || b == b'-');
            if !self.digits() {
                return Err(self.err("number needs digits in its exponent"));
            }
        }
        let text = &self.text[start..self.pos];
        if !point && !exponent && !negative {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(self.err("number out of range")),
        }
    }
}

/// Convenience constructor for an object literal.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A value a field table can write and read back.
pub trait Field: Sized {
    /// Encode.
    fn to_json(&self) -> Json;
    /// Decode, or say what was expected instead.
    fn from_json(j: &Json) -> Result<Self, String>;
}

/// A type whose JSON form is an object, declared with [`json_table!`]
/// (see the module doc). Every table is a [`Field`].
///
/// [`json_table!`]: crate::json_table
pub trait Table: Sized {
    /// Append this value's members, in table order.
    fn write_fields(&self, out: &mut Vec<(String, Json)>);
    /// Read this value's members from an object.
    fn read_fields(j: &Json) -> Result<Self, String>;

    /// This value as an object whose first member is `key: value` (a
    /// line tag, or a name the value is filed under).
    fn to_json_after(&self, key: &str, value: Json) -> Json {
        let mut members = vec![(key.to_string(), value)];
        self.write_fields(&mut members);
        Json::Obj(members)
    }
}

impl<T: Table> Field for T {
    fn to_json(&self) -> Json {
        let mut members = Vec::with_capacity(8);
        self.write_fields(&mut members);
        Json::Obj(members)
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        match j {
            Json::Obj(_) => T::read_fields(j),
            _ => Err("expected an object".into()),
        }
    }
}

/// Read the field `key`: required when `default` is `None`, else the
/// default stands in for an absent key.
pub fn field<T: Field>(j: &Json, key: &str, default: Option<T>) -> Result<T, String> {
    match (j.get(key), default) {
        (Some(v), _) => T::from_json(v).map_err(|e| format!("field '{key}': {e}")),
        (None, Some(d)) => Ok(d),
        (None, None) => Err(format!("missing field '{key}'")),
    }
}

/// `Field` for a type read through one `Json` accessor.
macro_rules! scalar_field {
    ($t:ty, $expected:literal, |$v:ident| $to:expr, $from:expr) => {
        impl Field for $t {
            fn to_json(&self) -> Json {
                let $v = self;
                $to
            }
            fn from_json(j: &Json) -> Result<Self, String> {
                $from(j).ok_or_else(|| concat!("expected ", $expected).into())
            }
        }
    };
}

scalar_field!(u64, "a u64", |v| Json::UInt(*v), Json::as_u64);
scalar_field!(usize, "a usize", |v| Json::UInt(*v as u64), |j: &Json| j
    .as_u64()
    .and_then(|v| v.try_into().ok()));
scalar_field!(bool, "a boolean", |v| Json::Bool(*v), Json::as_bool);
scalar_field!(String, "a string", |v| Json::Str(v.clone()), |j: &Json| j
    .as_str()
    .map(str::to_string));
// An object's members, kept as parsed.
scalar_field!(
    Vec<(String, Json)>,
    "an object",
    |v| Json::Obj(v.clone()),
    |j: &Json| {
        match j {
            Json::Obj(members) => Some(members.clone()),
            _ => None,
        }
    }
);

/// `None` is `null`.
impl<T: Field> Field for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(j: &Json) -> Result<Self, String> {
        match j {
            Json::Null => Ok(None),
            _ => T::from_json(j)
                .map(Some)
                .map_err(|e| format!("{e}, or null")),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_array()
            .ok_or("expected an array")?
            .iter()
            .enumerate()
            .map(|(i, x)| T::from_json(x).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

/// A workload kind by its registry name.
impl Field for WorkloadKind {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
    fn from_json(j: &Json) -> Result<Self, String> {
        WorkloadKind::from_name(j.as_str().ok_or("expected a workload name")?)
    }
}

crate::json_table!(Cost {
    reads: u64,
    writes: u64,
});

/// Declare a struct or a tagged enum together with its [`Table`], or give
/// a struct declared elsewhere a table; see the module doc.
#[macro_export]
macro_rules! json_table {
    ($(#[$m:meta])* $vis:vis struct $ty:ident {
        $($(#[$fm:meta])* $fvis:vis $f:ident : $t:ty $(as $k:literal)? $(= $rule:tt)?),* $(,)?
    }) => {
        $(#[$m])* $vis struct $ty { $($(#[$fm])* $fvis $f: $t,)* }
        $crate::json_table!($ty { $($f: $t $(as $k)? $(= $rule)?),* });
    };
    ($ty:ident { $($f:ident : $t:ty $(as $k:literal)? $(= $rule:tt)?),* $(,)? }) => {
        impl $crate::json::Table for $ty {
            fn write_fields(&self, out: &mut Vec<(String, $crate::json::Json)>) {
                $($crate::json_table!(@put out, &self.$f, $crate::json_table!(@key $f $($k)?) $(, $rule)?);)*
            }
            fn read_fields(j: &$crate::json::Json) -> Result<Self, String> {
                Ok(Self {
                    $($f: $crate::json_table!(@get j, $t, $crate::json_table!(@key $f $($k)?) $(, $rule)?),)*
                })
            }
        }
    };
    ($(#[$m:meta])* $vis:vis enum $ty:ident : $tag:literal { $($variants:tt)* }) => {
        $crate::json_table!(@enum [$(#[$m])* $vis enum $ty] $ty $tag out j [] [] [] $($variants)*);
    };

    // One variant at a time, accumulate the enum's variants, its
    // encoder's match arms and its decoder's, then emit all three. `out`
    // and `j` ride along so every arm names the same bindings.
    (@enum $decl:tt $ty:ident $tag:literal $out:ident $j:ident [$($def:tt)*] [$($enc:tt)*] [$($dec:tt)*]
        $(#[$vm:meta])* $v:ident = $name:literal $({
            $($(#[$fm:meta])* $f:ident : $t:ty $(as $k:literal)? $(= $rule:tt)?),* $(,)?
        })? $(, $($rest:tt)*)?) => {
        $crate::json_table!(@enum $decl $ty $tag $out $j
            [$($def)* $(#[$vm])* $v $({ $($(#[$fm])* $f: $t,)* })?,]
            [$($enc)* Self::$v { $($($f),*)? } => {
                $out.push(($tag.to_string(), $crate::json::Json::Str($name.to_string())));
                $($($crate::json_table!(@put $out, $f, $crate::json_table!(@key $f $($k)?) $(, $rule)?);)*)?
            }]
            [$($dec)* $name => Self::$v {
                $($($f: $crate::json_table!(@get $j, $t, $crate::json_table!(@key $f $($k)?) $(, $rule)?),)*)?
            },]
            $($($rest)*)?);
    };
    (@enum $decl:tt $ty:ident $tag:literal $out:ident $j:ident [$($def:tt)*] [$($enc:tt)*] [$($dec:tt)*]
        $(#[$vm:meta])* $v:ident = $name:literal ( $t:ty $(as $k:literal)? $(= $rule:tt)? )
        $(, $($rest:tt)*)?) => {
        $crate::json_table!(@enum $decl $ty $tag $out $j
            [$($def)* $(#[$vm])* $v($t),]
            [$($enc)* Self::$v(inner) => {
                $out.push(($tag.to_string(), $crate::json::Json::Str($name.to_string())));
                $crate::json_table!(@put $out, inner, $crate::json_table!(@key inner $($k)?) $(, $rule)?);
            }]
            [$($dec)* $name => Self::$v(
                $crate::json_table!(@get $j, $t, $crate::json_table!(@key inner $($k)?) $(, $rule)?)
            ),]
            $($($rest)*)?);
    };
    (@enum [$($decl:tt)*] $ty:ident $tag:literal $out:ident $j:ident [$($def:tt)*] [$($enc:tt)*] [$($dec:tt)*]) => {
        $($decl)* { $($def)* }

        impl $crate::json::Table for $ty {
            fn write_fields(&self, $out: &mut Vec<(String, $crate::json::Json)>) {
                match self {
                    $($enc)*
                }
            }
            fn read_fields($j: &$crate::json::Json) -> Result<Self, String> {
                let tag = $j.get($tag).ok_or_else(|| format!("missing field '{}'", $tag))?;
                Ok(match tag.as_str().ok_or_else(|| format!("field '{}': expected a string", $tag))? {
                    $($dec)*
                    other => return Err(format!("unknown {} {other:?}", $tag)),
                })
            }
        }

        impl $ty {
            /// Encode as one JSON object, tag first.
            pub fn to_json(&self) -> $crate::json::Json { $crate::json::Field::to_json(self) }
            /// Decode; an unknown tag or a malformed field is `Err`, never a panic.
            pub fn from_json(j: &$crate::json::Json) -> Result<Self, String> { $crate::json::Field::from_json(j) }
        }
    };

    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $k:literal) => { $k };

    // Field rules: `flat`, `(via W)`, `omit`, a default, or none (required).
    (@put $out:ident, $v:expr, $k:expr, flat) => { $crate::json::Table::write_fields($v, $out) };
    (@put $out:ident, $v:expr, $k:expr, (via $w:ty)) => {
        $crate::json::Table::write_fields(&<$w>::from($v.clone()), $out)
    };
    (@put $out:ident, $v:expr, $k:expr, omit) => {
        if let Some(v) = $v {
            $crate::json_table!(@put $out, v, $k);
        }
    };
    (@put $out:ident, $v:expr, $k:expr $(, $default:tt)?) => {
        $out.push(($k.to_string(), $crate::json::Field::to_json($v)))
    };
    (@get $j:ident, $t:ty, $k:expr, flat) => { <$t as $crate::json::Table>::read_fields($j)? };
    (@get $j:ident, $t:ty, $k:expr, (via $w:ty)) => { <$t>::from(<$w as $crate::json::Table>::read_fields($j)?) };
    (@get $j:ident, $t:ty, $k:expr, omit) => { $crate::json::field::<$t>($j, $k, Some(None))? };
    (@get $j:ident, $t:ty, $k:expr, $default:tt) => { $crate::json::field::<$t>($j, $k, Some($default))? };
    (@get $j:ident, $t:ty, $k:expr) => { $crate::json::field::<$t>($j, $k, None)? };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "18446744073709551615",
            "\"hi\"",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_string_compact(), text);
        }
    }

    #[test]
    fn uint_survives_round_trip_exactly() {
        let v = parse("9007199254740993").unwrap(); // 2^53 + 1: breaks f64
        assert_eq!(v.as_u64(), Some(9007199254740993));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":true}],"c":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c"), Some(&Json::Null));
        let round = parse(&v.to_string_compact()).unwrap();
        assert_eq!(v, round);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("line\nquote\"back\\slash\ttab\u{1}".to_string());
        let text = original.to_string_compact();
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn negative_and_fractional_numbers() {
        assert_eq!(parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"open",
            "{\"a\":}",
            "tru",
            "01x",
            "[1] garbage",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn object_lookup_misses_cleanly() {
        let v = parse(r#"{"x":1}"#).unwrap();
        assert!(v.get("y").is_none());
        assert!(Json::UInt(3).get("x").is_none());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        for deep in ["[".repeat(MAX_DEPTH + 1), "{\"a\":".repeat(MAX_DEPTH + 1)] {
            assert!(matches!(parse(&deep), Err(ObsError::Parse { .. })));
        }
    }

    #[test]
    fn rejects_leading_zeros() {
        assert!(parse("01").is_err());
        assert!(parse("-01").is_err());
        assert_eq!(parse("0").unwrap(), Json::UInt(0));
        assert_eq!(parse("-0").unwrap(), Json::Num(-0.0));
    }

    #[test]
    fn rejects_bare_decimal_points() {
        for bad in ["1.", "-.5", ".5", "1.e3", "1e", "1e+", "-", "+1"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        assert_eq!(parse("0.5e-1").unwrap(), Json::Num(0.05));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u04""#).is_err());
        assert!(parse(r#""\u 041""#).is_err());
        assert_eq!(parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn rejects_non_finite_numbers() {
        assert!(parse("1e400").is_err());
        assert!(parse("-1e400").is_err());
        assert_eq!(parse("1e-400").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn as_u64_refuses_two_to_the_64() {
        let v = parse("18446744073709551616").unwrap();
        assert_eq!(v, Json::Num(18446744073709551616.0));
        assert_eq!(v.as_u64(), None);
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(Json::Num(4.0).as_u64(), Some(4));
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Inner {
        x: u64,
        on: bool,
    }
    crate::json_table!(Inner {
        x: u64,
        on: bool = true
    });

    crate::json_table! {
        #[derive(Debug, Clone, PartialEq)]
        struct Outer {
            name: String as "n",
            inner: Inner = flat,
            cost: Cost,
            parent: Option<usize>,
            tags: Vec<String> = (Vec::new()),
            note: Option<String> = omit,
        }
    }

    crate::json_table! {
        #[derive(Debug, Clone, PartialEq)]
        enum Msg: "type" {
            Ping = "ping",
            Say = "say" { text: String },
            Wrap = "wrap" (Inner = flat),
            Many = "many" (Vec<Msg> as "items"),
        }
    }

    fn outer() -> Outer {
        Outer {
            name: "o".into(),
            inner: Inner { x: 3, on: false },
            cost: Cost::new(1, 2),
            parent: None,
            tags: vec!["a".into()],
            note: None,
        }
    }

    #[test]
    fn struct_tables_write_in_table_order_and_read_back() {
        let o = outer();
        let text = o.to_json().to_string_compact();
        assert_eq!(
            text,
            r#"{"n":"o","x":3,"on":false,"cost":{"reads":1,"writes":2},"parent":null,"tags":["a"]}"#
        );
        assert_eq!(Outer::from_json(&parse(&text).unwrap()).unwrap(), o);
        let noted = Outer {
            note: Some("hi".into()),
            parent: Some(4),
            ..o
        };
        let text = noted.to_json().to_string_compact();
        assert!(
            text.ends_with(r#""parent":4,"tags":["a"],"note":"hi"}"#),
            "{text}"
        );
        assert_eq!(Outer::from_json(&parse(&text).unwrap()).unwrap(), noted);
    }

    #[test]
    fn absent_fields_take_their_defaults() {
        let j = parse(r#"{"n":"o","x":3,"cost":{"reads":1,"writes":2},"parent":null}"#).unwrap();
        let o = Outer::from_json(&j).unwrap();
        assert!(o.inner.on);
        assert!(o.tags.is_empty());
        assert_eq!(o.note, None);
    }

    #[test]
    fn read_errors_name_the_field() {
        let err = |text: &str| Outer::from_json(&parse(text).unwrap()).unwrap_err();
        assert_eq!(err(r#"{"x":3}"#), "missing field 'n'");
        assert_eq!(err(r#"{"n":"o","x":-3}"#), "field 'x': expected a u64");
        assert_eq!(
            err(r#"{"n":"o","x":3,"cost":{"reads":1}}"#),
            "field 'cost': missing field 'writes'"
        );
        assert_eq!(
            err(r#"{"n":"o","x":3,"cost":{"reads":1,"writes":2},"parent":"p"}"#),
            "field 'parent': expected a usize, or null"
        );
        assert_eq!(
            err(r#"{"n":"o","x":3,"cost":{"reads":1,"writes":2},"parent":null,"tags":["a",1]}"#),
            "field 'tags': [1]: expected a string"
        );
        assert_eq!(
            Outer::from_json(&Json::Null).unwrap_err(),
            "expected an object"
        );
    }

    #[test]
    fn tagged_enums_cover_every_variant_shape() {
        let all = Msg::Many(vec![
            Msg::Ping,
            Msg::Say { text: "hi".into() },
            Msg::Wrap(Inner { x: 1, on: true }),
        ]);
        let text = all.to_json().to_string_compact();
        assert_eq!(
            text,
            r#"{"type":"many","items":[{"type":"ping"},{"type":"say","text":"hi"},{"type":"wrap","x":1,"on":true}]}"#
        );
        assert_eq!(Msg::from_json(&parse(&text).unwrap()).unwrap(), all);
        let err = Msg::from_json(&parse(r#"{"type":"shout"}"#).unwrap()).unwrap_err();
        assert_eq!(err, r#"unknown type "shout""#);
        assert_eq!(
            Msg::from_json(&parse(r#"{"kind":"ping"}"#).unwrap()).unwrap_err(),
            "missing field 'type'"
        );
    }

    #[test]
    fn to_json_after_puts_one_member_first() {
        let j = Inner { x: 1, on: true }.to_json_after("t", Json::Str("inner".into()));
        assert_eq!(j.to_string_compact(), r#"{"t":"inner","x":1,"on":true}"#);
    }

    #[test]
    fn workload_kinds_travel_by_name() {
        let k = WorkloadKind::Spmv;
        assert_eq!(k.to_json(), Json::Str("spmv".into()));
        assert_eq!(WorkloadKind::from_json(&k.to_json()).unwrap(), k);
        assert!(WorkloadKind::from_json(&Json::Str("nope".into())).is_err());
    }

    #[test]
    fn every_committed_json_file_parses_strictly() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = vec![root.join("hostbench/expected.json")];
        for dir in [root.clone(), root.join("crates/fuzz/corpus")] {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|e| e == "json") {
                    files.push(path);
                }
            }
        }
        assert!(files.len() >= 8, "{files:?}");
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(parse(&text).is_ok(), "{} must parse", path.display());
        }
    }
}
