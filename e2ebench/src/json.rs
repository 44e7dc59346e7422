//! A minimal JSON object writer (the workspace has no serde).

/// An ordered JSON object under construction.
#[derive(Debug, Default, Clone)]
pub struct Obj(Vec<(String, String)>);

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON; non-finite values become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj(Vec::new())
    }

    /// Adds a number.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.0.push((key.to_string(), number(v)));
        self
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.0.push((key.to_string(), quote(v)));
        self
    }

    /// Adds a boolean.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    /// Adds a nested object.
    pub fn obj(&mut self, key: &str, v: Obj) -> &mut Self {
        self.0.push((key.to_string(), v.render()));
        self
    }

    /// Adds a pre-rendered JSON value.
    pub fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.0.push((key.to_string(), json));
        self
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Renders a list of pre-rendered JSON values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_ordered_escaped_objects() {
        let mut inner = Obj::new();
        inner.num("value", 1.25).str("unit", "ms");
        let mut o = Obj::new();
        o.bool("correct", true)
            .num("n", 3.0)
            .num("bad", f64::NAN)
            .str("s", "a\"b")
            .obj("m", inner);
        assert_eq!(
            o.render(),
            r#"{"correct": true, "n": 3, "bad": 0, "s": "a\"b", "m": {"value": 1.25, "unit": "ms"}}"#
        );
        assert_eq!(array(&["1".into(), "2".into()]), "[1, 2]");
    }
}
