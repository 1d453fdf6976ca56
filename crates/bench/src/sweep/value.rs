//! Typed cell outputs.
//!
//! A sweep cell returns a [`CellOut`]: an ordered list of named typed
//! fields plus (optionally) pre-rendered table rows, for experiments whose
//! per-cell row count is only known at run time (e.g. the T1f phase
//! attribution). Each field keeps the type it was written with, so a
//! renderer reading a field as the wrong type fails loudly instead of
//! printing a silently converted number.

use aem_obs::json::Json;

/// The result of one sweep cell: ordered named fields plus optional
/// pre-rendered rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellOut {
    fields: Vec<(String, Json)>,
    rows: Vec<Vec<String>>,
}

impl CellOut {
    /// An empty output.
    pub fn new() -> Self {
        Self::default()
    }

    fn with(mut self, name: &str, v: Json) -> Self {
        self.fields.push((name.to_string(), v));
        self
    }

    /// Append an unsigned-integer field (builder style).
    pub fn with_u64(self, name: &str, v: u64) -> Self {
        self.with(name, Json::UInt(v))
    }

    /// Append a float field (builder style).
    pub fn with_f64(self, name: &str, v: f64) -> Self {
        self.with(name, Json::Num(v))
    }

    /// Append a boolean field (builder style).
    pub fn with_bool(self, name: &str, v: bool) -> Self {
        self.with(name, Json::Bool(v))
    }

    /// Append a string field (builder style).
    pub fn with_str(self, name: &str, v: impl Into<String>) -> Self {
        self.with(name, Json::Str(v.into()))
    }

    /// Append one pre-rendered table row (builder style).
    pub fn with_row(mut self, row: Vec<String>) -> Self {
        self.rows.push(row);
        self
    }

    /// The pre-rendered rows (empty for purely scalar cells).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    fn field<'a, T>(&'a self, name: &str, ty: &str, read: impl FnOnce(&'a Json) -> Option<T>) -> T {
        let v = self
            .fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("cell output has no field {name:?}"));
        read(v).unwrap_or_else(|| panic!("field {name:?} is {v:?}, not {ty}"))
    }

    /// Read back a `u64` field.
    ///
    /// # Panics
    ///
    /// Panics if the field is absent or has a different type — a sweep's
    /// `render` reading a field its own cells never wrote is a programming
    /// error, not a runtime condition.
    pub fn u64(&self, name: &str) -> u64 {
        self.field(name, "u64", |v| match *v {
            Json::UInt(x) => Some(x),
            _ => None,
        })
    }

    /// Read back an `f64` field (see [`CellOut::u64`] for panics).
    pub fn f64(&self, name: &str) -> f64 {
        self.field(name, "f64", |v| match *v {
            Json::Num(x) => Some(x),
            _ => None,
        })
    }

    /// Read back a boolean field (see [`CellOut::u64`] for panics).
    pub fn bool(&self, name: &str) -> bool {
        self.field(name, "bool", Json::as_bool)
    }

    /// Read back a string field (see [`CellOut::u64`] for panics).
    pub fn str(&self, name: &str) -> &str {
        self.field(name, "str", Json::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_types_exactly() {
        let out = CellOut::new()
            .with_u64("n", u64::MAX)
            .with_f64("ratio", 0.1 + 0.2) // not exactly 0.3
            .with_f64("whole", 2.0)
            .with_bool("ok", true)
            .with_str("label", "ωm — \"quoted\"")
            .with_row(vec!["a".into(), "b".into()]);
        assert_eq!(out.u64("n"), u64::MAX);
        assert_eq!(out.f64("ratio"), 0.1 + 0.2);
        assert_eq!(out.f64("whole"), 2.0);
        assert!(out.bool("ok"));
        assert_eq!(out.str("label"), "ωm — \"quoted\"");
        assert_eq!(out.rows().len(), 1);
    }

    #[test]
    #[should_panic(expected = "no field")]
    fn missing_field_panics() {
        CellOut::new().u64("absent");
    }

    #[test]
    #[should_panic(expected = "not u64")]
    fn wrong_type_panics() {
        CellOut::new().with_f64("x", 1.0).u64("x");
    }
}
