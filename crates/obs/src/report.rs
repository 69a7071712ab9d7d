//! Report rendering: the one JSON writer every machine-readable document
//! in the workspace goes through (lint and flow reports, `BENCH_1/2/3.json`,
//! the fusion histogram, `ia-fleet --json`), plus the text renderer for
//! flight-recorder dumps.

use crate::{Event, Obs, Outcome};
use std::fmt::Write as _;

/// Version stamp carried by every JSON document the workspace renders
/// (lint and flow reports, `BENCH_1/2/3.json`, the fusion histogram), so
/// downstream consumers can detect shape changes in one place.
pub const SCHEMA_VERSION: u32 = 1;

/// How a JSON container places its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One entry per line, indented two spaces per nesting level, the
    /// closing bracket on its own line.
    Block,
    /// Every entry on the opening line, separated by `, `.
    Inline,
}

/// A JSON value with its layout fixed, so a document renders to the same
/// bytes every time. The workspace builds offline with no serialization
/// dependency; this is its one writer.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Number text, written verbatim (see [`Json::fixed`]).
    Num(String),
    /// A string, escaped by [`json_escape`] on output.
    Str(String),
    /// An array.
    Arr(Layout, Vec<Json>),
    /// An object; keys keep their insertion order.
    Obj(Layout, Vec<(String, Json)>),
}

impl Json {
    /// An empty object whose entries go one per line.
    #[must_use]
    pub fn block() -> Json {
        Json::Obj(Layout::Block, Vec::new())
    }

    /// An empty object written on one line.
    #[must_use]
    pub fn inline() -> Json {
        Json::Obj(Layout::Inline, Vec::new())
    }

    /// A stamped document: a block object opening with the
    /// [`SCHEMA_VERSION`] stamp and one identifying tag field, so the
    /// stamp cannot be forgotten (BENCH_1/2/3 once shipped without it).
    #[must_use]
    pub fn document(tag_key: &str, tag: &str) -> Json {
        Json::block()
            .field("schema_version", SCHEMA_VERSION)
            .field(tag_key, tag)
    }

    /// An array of `items` in `layout`.
    #[must_use]
    pub fn array<T: Into<Json>>(layout: Layout, items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(layout, items.into_iter().map(Into::into).collect())
    }

    /// `v` with exactly `decimals` digits after the point.
    #[must_use]
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::Num(format!("{v:.decimals$}"))
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    /// If `self` is not an object.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Obj(_, fields) = &mut self else {
            panic!("Json::field on a non-object");
        };
        fields.push((key.to_owned(), value.into()));
        self
    }

    /// The value as a document: its text plus a final newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(text) => out.push_str(text),
            Json::Str(s) => write_str(out, s),
            Json::Arr(layout, items) => {
                write_seq(out, depth, *layout, ('[', ']'), items, |out, item| {
                    item.write(out, depth + 1);
                });
            }
            Json::Obj(layout, fields) => {
                write_seq(out, depth, *layout, ('{', '}'), fields, |out, (k, v)| {
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                });
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&json_escape(s));
    out.push('"');
}

/// Writes a bracketed sequence at nesting `depth`: entries separated by
/// `,` plus a newline and indent (block) or by `, ` (inline).
fn write_seq<T>(
    out: &mut String,
    depth: usize,
    layout: Layout,
    (open, close): (char, char),
    entries: &[T],
    mut entry: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match layout {
            Layout::Block => newline(out, depth + 1),
            Layout::Inline if i > 0 => out.push(' '),
            Layout::Inline => {}
        }
        entry(out, e);
    }
    if layout == Layout::Block {
        newline(out, depth);
    }
    out.push(close);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n.to_string())
            }
        }
    )*};
}
json_from_int!(u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<&String> for Json {
    fn from(s: &String) -> Json {
        Json::Str(s.clone())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Escapes `s` for inclusion inside a JSON string literal.
///
/// Handles the two characters that terminate or escape a literal (`"` and
/// `\`), the common named controls (`\n`, `\r`, `\t`), and every other
/// control character below 0x20 as `\u00XX` — the full set RFC 8259
/// requires. Everything else (including multi-byte UTF-8) passes through.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Human name for a trap number: the `Sysno` name, or `sys#N` for numbers
/// outside the interface.
#[must_use]
pub fn sys_name(nr: u32) -> String {
    match ia_abi::Sysno::from_u32(nr) {
        Some(s) => s.name().to_owned(),
        None => format!("sys#{nr}"),
    }
}

fn outcome_str(o: Outcome) -> String {
    match o {
        Outcome::Ok => "ok".to_owned(),
        Outcome::Err(e) => format!("err({e})"),
        Outcome::Block => "block".to_owned(),
        Outcome::NoReturn => "noreturn".to_owned(),
    }
}

/// Renders the retained flight-recorder events, oldest first, one per
/// line — the format dumped next to conformance repros.
#[must_use]
pub fn render_events_text(obs: &Obs) -> String {
    let events = obs.events();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# flight recorder: {} retained, {} dropped",
        events.len(),
        obs.dropped()
    );
    for e in &events {
        let _ = write!(out, "seq={:<8} v={:>12}ns  ", e.seq, e.vclock_ns);
        match e.event {
            Event::LayerEnter { layer, pid, nr } => {
                let _ = writeln!(
                    out,
                    "enter  pid={pid} layer={} nr={}",
                    obs.layer_name(layer),
                    sys_name(nr)
                );
            }
            Event::LayerExit {
                layer,
                pid,
                nr,
                outcome,
            } => {
                let _ = writeln!(
                    out,
                    "exit   pid={pid} layer={} nr={} outcome={}",
                    obs.layer_name(layer),
                    sys_name(nr),
                    outcome_str(outcome)
                );
            }
            Event::TrapDispatch { pid, nr, restarts } => {
                let _ = writeln!(
                    out,
                    "trap   pid={pid} nr={} restarts={restarts}",
                    sys_name(nr)
                );
            }
            Event::Slice { pid, retired } => {
                let _ = writeln!(out, "slice  pid={pid} retired={retired}");
            }
            Event::SignalDelivered { pid, sig } => {
                let _ = writeln!(out, "signal pid={pid} sig={sig}");
            }
            Event::FaultInjected { pid, nr, errno } => {
                let _ = writeln!(out, "fault  pid={pid} nr={} errno={errno}", sys_name(nr));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(json_escape("\u{01}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(json_escape("käse/🦀"), "käse/🦀");
        // The composed case that broke hostbench: a machine name
        // containing both a quote and a backslash.
        assert_eq!(json_escape(r#"i486 "DX\2""#), r#"i486 \"DX\\2\""#);
    }

    #[test]
    fn writer_escapes_keys_and_string_values() {
        // A scenario name with quotes, a backslash and a raw newline must
        // come out escaped wherever the writer places it.
        let odd = "odd \"name\"\\with\ncontrols";
        let doc = Json::document("bench", "BENCH_1")
            .field(
                "rows",
                Json::array(Layout::Block, [Json::inline().field("name", odd)]),
            )
            .field(odd, 1u32)
            .render();
        assert_eq!(doc.matches(r#""odd \"name\"\\with\ncontrols""#).count(), 2);
        assert!(!doc.contains(odd));
        assert!(!doc.contains('\u{0}'));
    }

    #[test]
    fn document_opens_with_the_stamp() {
        let doc = Json::document("bench", "BENCH_1").render();
        assert_eq!(
            doc,
            "{\n  \"schema_version\": 1,\n  \"bench\": \"BENCH_1\"\n}\n"
        );
        // Tag values pass through the shared escaper.
        assert!(Json::document("image", "a\"b")
            .render()
            .contains(r#""a\"b""#));
    }

    #[test]
    fn block_and_inline_layouts_nest() {
        let doc = Json::block()
            .field("list", Json::array(Layout::Inline, [1u64, 2, 3]))
            .field(
                "rows",
                Json::array(
                    Layout::Block,
                    [
                        Json::inline().field("a", true).field("b", Json::Null),
                        Json::inline()
                            .field("c", Json::fixed(1.0 / 3.0, 2))
                            .field("d", Json::array(Layout::Inline, Vec::<Json>::new())),
                    ],
                ),
            )
            .field("empty", Json::array(Layout::Block, Vec::<Json>::new()))
            .field(
                "nested",
                Json::block().field("x", Some("y")).field("z", None::<u32>),
            );
        assert_eq!(
            doc.render(),
            "{\n  \"list\": [1, 2, 3],\n  \"rows\": [\n    {\"a\": true, \"b\": null},\n    \
             {\"c\": 0.33, \"d\": []}\n  ],\n  \"empty\": [\n  ],\n  \"nested\": {\n    \
             \"x\": \"y\",\n    \"z\": null\n  }\n}\n"
        );
    }

    #[test]
    fn sys_name_falls_back_to_number() {
        assert_eq!(sys_name(ia_abi::Sysno::Read.number()), "read");
        assert_eq!(sys_name(9999), "sys#9999");
    }

    #[test]
    fn renders_events() {
        let mut o = Obs::new();
        o.enable(16);
        o.trap_dispatch(1, ia_abi::Sysno::Getpid.number(), 0, 100);
        o.layer_enter("kernel", 1, ia_abi::Sysno::Getpid.number(), 100);
        o.layer_exit(
            "kernel",
            1,
            ia_abi::Sysno::Getpid.number(),
            crate::Outcome::Ok,
            160,
        );
        let text = render_events_text(&o);
        assert!(text.contains("trap   pid=1 nr=getpid restarts=0"));
        assert!(text.contains("enter  pid=1 layer=kernel nr=getpid"));
        assert!(text.contains("outcome=ok"));
    }
}
