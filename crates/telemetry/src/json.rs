//! A minimal JSON writer so snapshots can export without external
//! dependencies. Only the subset the telemetry plane needs: objects,
//! arrays, strings, integers, floats.

enum Frame {
    Object,
    Array,
}

pub(crate) struct JsonWriter {
    buf: String,
    stack: Vec<Frame>,
    first: Vec<bool>,
}

impl JsonWriter {
    /// Starts a writer whose root is an object.
    pub(crate) fn object() -> Self {
        JsonWriter {
            buf: String::from("{"),
            stack: vec![Frame::Object],
            first: vec![true],
        }
    }

    fn sep(&mut self) {
        match self.first.last_mut() {
            Some(first) if *first => *first = false,
            Some(_) => self.buf.push(','),
            None => {}
        }
    }

    fn key(&mut self, name: &str) {
        self.sep();
        self.buf.push('"');
        escape_into(&mut self.buf, name);
        self.buf.push_str("\":");
    }

    pub(crate) fn field_str(&mut self, name: &str, v: &str) {
        self.key(name);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
    }

    pub(crate) fn field_u64(&mut self, name: &str, v: u64) {
        self.key(name);
        self.buf.push_str(&v.to_string());
    }

    pub(crate) fn field_f64(&mut self, name: &str, v: f64) {
        self.key(name);
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
    }

    pub(crate) fn begin_array_field(&mut self, name: &str) {
        self.key(name);
        self.buf.push('[');
        self.stack.push(Frame::Array);
        self.first.push(true);
    }

    pub(crate) fn end_array(&mut self) {
        debug_assert!(matches!(self.stack.last(), Some(Frame::Array)));
        self.stack.pop();
        self.first.pop();
        self.buf.push(']');
    }

    /// Appends a pre-serialized JSON value as the next array element.
    pub(crate) fn array_raw(&mut self, raw: &str) {
        debug_assert!(matches!(self.stack.last(), Some(Frame::Array)));
        self.sep();
        self.buf.push_str(raw);
    }

    /// Appends a number as the next array element.
    #[cfg(test)]
    pub(crate) fn array_u64(&mut self, v: u64) {
        self.sep();
        self.buf.push_str(&v.to_string());
    }

    /// Closes all open containers and returns the document.
    pub(crate) fn finish(mut self) -> String {
        while let Some(frame) = self.stack.pop() {
            self.buf.push(match frame {
                Frame::Object => '}',
                Frame::Array => ']',
            });
        }
        self.buf
    }
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_document() {
        let mut w = JsonWriter::object();
        w.field_u64("n", 3);
        w.field_str("s", "a\"b\\c\nd");
        w.begin_array_field("xs");
        w.array_u64(1);
        w.array_u64(2);
        w.array_raw("{\"k\":0}");
        w.end_array();
        assert_eq!(
            w.finish(),
            "{\"n\":3,\"s\":\"a\\\"b\\\\c\\nd\",\"xs\":[1,2,{\"k\":0}]}"
        );
    }

    #[test]
    fn finish_closes_open_frames() {
        let mut w = JsonWriter::object();
        w.begin_array_field("a");
        w.array_u64(9);
        assert_eq!(w.finish(), "{\"a\":[9]}");
    }
}
