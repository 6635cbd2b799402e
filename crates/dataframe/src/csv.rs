//! CSV serialization for frames.
//!
//! Workload generators export node/edge frames as CSV so benchmark runs can
//! be inspected outside the harness; the serving layer's snapshots embed
//! frames in this format and replay them back. The dialect is deliberately
//! small: comma separator, `"`-quoting with doubled quotes, first row is the
//! header.
//!
//! The round trip is **lossless**: string fields are always quoted (so a
//! string that *looks* numeric — `"15.76"`, an address prefix — or an empty
//! string comes back as exactly that string, not a float or a null), and
//! quoted fields are never type-inferred on the way back in. Unquoted
//! fields carry the numeric/bool/null scalars.
//!
//! Both directions stream. [`write_csv`] writes each field in place into a
//! `netgraph::json::JsonWriter` (a snapshot writes the table inside a JSON
//! string literal, the one level of escaping the writer has, escaped as it
//! goes), and [`from_csv`] appends each field to its column as soon as the
//! field ends, with no table of raw rows in between.

use crate::column::Column;
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use netgraph::json::JsonWriter;
use netgraph::AttrValue;

/// Serializes a frame as CSV with a header row.
///
/// Ints, floats and bools are written unquoted and nulls as empty fields;
/// strings (and list values, via their display form) are always quoted so
/// the reader can reconstruct them verbatim without type inference. A
/// float is written in its shortest round-trip form, and an integral one
/// below 2^63 in magnitude ends in `.0`, so that it never reads back as an
/// integer.
pub fn to_csv(df: &DataFrame) -> String {
    let mut out = JsonWriter::new();
    write_csv(df, &mut out);
    out.finish()
}

/// [`to_csv`] into a writer, as text where the writer is: a snapshot
/// writes a table inside a JSON string literal this way.
pub fn write_csv(df: &DataFrame, out: &mut JsonWriter) {
    for (i, name) in df.column_names().into_iter().enumerate() {
        if i > 0 {
            out.text(",");
        }
        write_quoted(name, out);
    }
    out.text("\n");
    let columns = df.columns();
    for row in 0..df.n_rows() {
        for (i, column) in columns.iter().enumerate() {
            if i > 0 {
                out.text(",");
            }
            match &column.values()[row] {
                AttrValue::Null => {}
                AttrValue::Bool(b) => out.text(if *b { "true" } else { "false" }),
                AttrValue::Int(i) => out.int(*i),
                AttrValue::Float(f) => out.typed_float(*f),
                AttrValue::Str(s) => write_quoted(s, out),
                v @ AttrValue::List(_) => write_quoted(&v.to_string(), out),
            }
        }
        out.text("\n");
    }
}

/// Writes `s` quoted, doubling every quote inside it.
fn write_quoted(s: &str, out: &mut JsonWriter) {
    out.text("\"");
    for (i, part) in s.split('"').enumerate() {
        if i > 0 {
            out.text("\"\"");
        }
        out.text(part);
    }
    out.text("\"");
}

/// Parses CSV text (first row = header) into a frame.
///
/// Quoted fields are taken as literal strings. Unquoted fields are
/// type-inferred: empty → null, `true`/`false` → bool, integers → int,
/// other numerics → float, everything else → string.
///
/// Errors, in this order of precedence: an unterminated quoted field; the
/// first record whose field count differs from the header's, as `row N has
/// M fields` with N counting records from 1 at the header; a duplicate
/// column name.
pub fn from_csv(text: &str) -> Result<DataFrame> {
    let mut reader = Reader::default();
    let bytes = text.as_bytes();
    let mut field = String::new();
    let mut field_quoted = false;
    let mut in_quotes = false;
    // Start of the text not yet copied into `field`. Every byte the
    // scanner acts on is ASCII, so every slice is at char boundaries.
    let mut run = 0;
    let mut i = 0;
    while i < bytes.len() {
        let byte = bytes[i];
        if in_quotes {
            if byte == b'"' {
                field.push_str(&text[run..i]);
                if bytes.get(i + 1) == Some(&b'"') {
                    field.push('"');
                    i += 1;
                } else {
                    in_quotes = false;
                }
                run = i + 1;
            }
        } else if matches!(byte, b'"' | b',' | b'\r' | b'\n') {
            field.push_str(&text[run..i]);
            run = i + 1;
            match byte {
                b'"' => {
                    in_quotes = true;
                    field_quoted = true;
                }
                b',' => reader.field(&mut field, std::mem::take(&mut field_quoted)),
                b'\n' => {
                    reader.field(&mut field, std::mem::take(&mut field_quoted));
                    reader.end_record();
                }
                _ => {}
            }
        }
        i += 1;
    }
    if in_quotes {
        return Err(FrameError::Csv("unterminated quoted field".to_string()));
    }
    field.push_str(&text[run..]);
    if !text.is_empty() && (!field.is_empty() || field_quoted || reader.fields > 0) {
        reader.field(&mut field, field_quoted);
        reader.end_record();
    }
    reader.finish()
}

/// The frame [`from_csv`] is building: the header while its record is
/// read, then the columns.
#[derive(Default)]
struct Reader {
    header: Vec<String>,
    /// `None` while the header record is being read.
    columns: Option<Vec<Column>>,
    /// Fields seen so far in the current record.
    fields: usize,
    /// Records ended so far, the header included.
    records: usize,
    /// The first record-width error; parsing goes on so that an
    /// unterminated quote later in the text still takes precedence.
    error: Option<FrameError>,
}

impl Reader {
    fn field(&mut self, text: &mut String, quoted: bool) {
        let index = self.fields;
        self.fields += 1;
        match &mut self.columns {
            None => self.header.push(std::mem::take(text)),
            Some(columns) => {
                if let Some(column) = columns.get_mut(index) {
                    column.push(if quoted {
                        AttrValue::Str(text.as_str().into())
                    } else {
                        infer_value(text)
                    });
                }
                text.clear();
            }
        }
    }

    fn end_record(&mut self) {
        self.records += 1;
        match &self.columns {
            None => self.columns = Some(self.header.iter().map(|_| Column::new()).collect()),
            Some(_) => {
                if self.fields != self.header.len() && self.error.is_none() {
                    self.error = Some(FrameError::Csv(format!(
                        "row {} has {} fields, expected {}",
                        self.records,
                        self.fields,
                        self.header.len()
                    )));
                }
            }
        }
        self.fields = 0;
    }

    fn finish(self) -> Result<DataFrame> {
        if let Some(error) = self.error {
            return Err(error);
        }
        match self.columns {
            None => Ok(DataFrame::new()),
            Some(columns) => {
                DataFrame::from_columns(self.header.into_iter().zip(columns).collect())
            }
        }
    }
}

fn infer_value(field: &str) -> AttrValue {
    if field.is_empty() {
        return AttrValue::Null;
    }
    match field {
        "true" => return AttrValue::Bool(true),
        "false" => return AttrValue::Bool(false),
        _ => {}
    }
    // Only fields that *look* numeric are parsed as numbers; this keeps
    // strings such as "inf" or "nan" (valid Rust float spellings) as text.
    let looks_numeric = field
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        && field.chars().any(|c| c.is_ascii_digit());
    if looks_numeric {
        if let Ok(i) = field.parse::<i64>() {
            return AttrValue::Int(i);
        }
        if let Ok(f) = field.parse::<f64>() {
            return AttrValue::Float(f);
        }
    }
    AttrValue::Str(field.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "node".to_string(),
                Column::from_values(["a", "b,comma", "c\"quote"]),
            ),
            ("bytes".to_string(), Column::from_values([10i64, 20, 30])),
            (
                "ratio".to_string(),
                Column::from_iter(vec![
                    AttrValue::Float(0.5),
                    AttrValue::Null,
                    AttrValue::Float(1.5),
                ]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_values() {
        let df = sample();
        let text = to_csv(&df);
        let back = from_csv(&text).unwrap();
        assert_eq!(back.n_rows(), 3);
        assert_eq!(back.value(1, "node").unwrap().as_str(), Some("b,comma"));
        assert_eq!(back.value(2, "node").unwrap().as_str(), Some("c\"quote"));
        assert_eq!(back.value(0, "bytes").unwrap(), &AttrValue::Int(10));
        assert!(back.value(1, "ratio").unwrap().is_null());
        assert_eq!(back.value(2, "ratio").unwrap(), &AttrValue::Float(1.5));
    }

    #[test]
    fn csv_bytes_are_pinned_at_depths_0_1_2() {
        let df = DataFrame::from_columns(vec![
            (
                "s".to_string(),
                Column::from_values(["15.76", "a\"b", "é\n"]),
            ),
            (
                "n".to_string(),
                Column::from_iter(vec![
                    AttrValue::Int(-3),
                    AttrValue::Float(2.0),
                    AttrValue::Null,
                ]),
            ),
        ])
        .unwrap();
        let at = |depth: usize| {
            let mut out = JsonWriter::new();
            if depth > 0 {
                out.begin_string();
            }
            write_csv(&df, &mut out);
            if depth > 0 {
                out.end_string();
            }
            let mut text = out.finish();
            // Depth 2 is the table inside a snapshot that a `nemo-shard/v1`
            // document held as a string literal in turn.
            for _ in 1..depth {
                text = netgraph::json::JsonValue::String(text).to_json();
            }
            text
        };
        // Written by hand, one escape level per depth.
        assert_eq!(
            at(0),
            "\"s\",\"n\"\n\"15.76\",-3\n\"a\"\"b\",2.0\n\"é\n\",\n"
        );
        assert_eq!(
            at(1),
            r#""\"s\",\"n\"\n\"15.76\",-3\n\"a\"\"b\",2.0\n\"é\n\",\n""#
        );
        assert_eq!(
            at(2),
            r#""\"\\\"s\\\",\\\"n\\\"\\n\\\"15.76\\\",-3\\n\\\"a\\\"\\\"b\\\",2.0\\n\\\"é\\n\\\",\\n\"""#
        );
    }

    #[test]
    fn integral_floats_come_back_as_floats() {
        let values = [
            2.0,
            -0.0,
            1e15,
            2.5e15,
            1e17,
            -(2f64.powi(60)),
            -(2f64.powi(63)),
            2f64.powi(63),
            1e20,
        ];
        let df = DataFrame::from_columns(vec![(
            "f".to_string(),
            Column::from_iter(values.iter().map(|&f| AttrValue::Float(f))),
        )])
        .unwrap();
        let text = to_csv(&df);
        let back = from_csv(&text).unwrap();
        for (row, f) in values.into_iter().enumerate() {
            // Matched on the variant and the exact value: `==` on attribute
            // values compares numbers through f64.
            assert!(
                matches!(back.value(row, "f"), Ok(AttrValue::Float(g)) if g.to_bits() == f.to_bits()),
                "{f}: read back as {:?} from {text:?}",
                back.value(row, "f")
            );
        }
        assert_eq!(to_csv(&back), text);
    }

    #[test]
    fn type_inference() {
        let df = from_csv("a,b,c,d\n1,2.5,true,hello\n").unwrap();
        assert_eq!(df.value(0, "a").unwrap(), &AttrValue::Int(1));
        assert_eq!(df.value(0, "b").unwrap(), &AttrValue::Float(2.5));
        assert_eq!(df.value(0, "c").unwrap(), &AttrValue::Bool(true));
        assert_eq!(df.value(0, "d").unwrap().as_str(), Some("hello"));
    }

    #[test]
    fn round_trip_is_lossless_for_tricky_strings() {
        // Strings that look numeric, spell booleans, or are empty must come
        // back as exactly the same strings — the snapshot/replay layer
        // depends on this.
        let df = DataFrame::from_columns(vec![(
            "s".to_string(),
            Column::from_values(["15.76", "true", "", "10"]),
        )])
        .unwrap();
        let back = from_csv(&to_csv(&df)).unwrap();
        for row in 0..df.n_rows() {
            assert_eq!(back.value(row, "s").unwrap(), df.value(row, "s").unwrap());
        }
        // And a second serialization is byte-identical.
        assert_eq!(to_csv(&back), to_csv(&df));
    }

    #[test]
    fn quoted_fields_skip_inference_unquoted_fields_keep_it() {
        let df = from_csv("a,b\n\"123\",123\n").unwrap();
        assert_eq!(df.value(0, "a").unwrap().as_str(), Some("123"));
        assert_eq!(df.value(0, "b").unwrap(), &AttrValue::Int(123));
        // A quoted empty field is an empty string, an unquoted one is null.
        let df = from_csv("a,b\n\"\",\n").unwrap();
        assert_eq!(df.value(0, "a").unwrap().as_str(), Some(""));
        assert!(df.value(0, "b").unwrap().is_null());
    }

    #[test]
    fn mismatched_row_width_errors() {
        assert!(matches!(from_csv("a,b\n1,2\n3\n"), Err(FrameError::Csv(_))));
    }

    #[test]
    fn width_errors_name_the_record_counting_the_header_as_one() {
        // Records, not lines: a quoted newline does not start a record.
        let pins = [
            ("a,b\n1,2\n3\n", "row 3 has 1 fields, expected 2"),
            ("a,b\n\"x\ny\",2\n1,2,3\n", "row 3 has 3 fields, expected 2"),
            ("a,b\r\n1,2\r\n3\r\n", "row 3 has 1 fields, expected 2"),
            ("a,b\n\n1,2\n", "row 2 has 1 fields, expected 2"),
            ("a,b\n1,2\n3,4,5", "row 3 has 3 fields, expected 2"),
            (
                "é,\"ü\"\n\"日本\nx\",2\n\"€\"\n",
                "row 3 has 1 fields, expected 2",
            ),
            // An unterminated quote outranks an earlier width error, which
            // outranks a duplicate column name.
            ("a,b\n1\n\"oops", "unterminated quoted field"),
            ("a,a\n1\n", "row 2 has 1 fields, expected 2"),
        ];
        for (input, error) in pins {
            let want = format!("CSV parse error: {error}");
            assert_eq!(from_csv(input).unwrap_err().to_string(), want, "{input:?}");
        }
    }

    #[test]
    fn unterminated_quote_errors() {
        assert!(from_csv("a\n\"oops\n").is_err());
    }

    #[test]
    fn empty_input_gives_empty_frame() {
        let df = from_csv("").unwrap();
        assert_eq!(df.n_cols(), 0);
        assert_eq!(df.n_rows(), 0);
    }

    #[test]
    fn missing_trailing_newline_still_parses_last_row() {
        let df = from_csv("x\n1\n2").unwrap();
        assert_eq!(df.n_rows(), 2);
    }
}
