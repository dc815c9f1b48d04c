//! A line-oriented text netlist format, with parser and serializer.
//!
//! *lsim* — the simulator the paper's data came from — was a UNIX tool
//! reading circuit descriptions from files; this module provides the
//! equivalent front end so circuits can live outside Rust code.
//!
//! # Format
//!
//! One statement per line; `#` starts a comment; blank lines ignored.
//!
//! ```text
//! circuit half_adder        # optional, names the netlist
//! input a
//! input b
//! net sum                   # optional pre-declaration
//! gate XOR sum a b          # gate KIND out in...
//! gate AND d=2,3 carry a b  # d=rise[,fall] sets the delay (default 1)
//! switch NMOS ctl x y       # switch KIND control terminal terminal
//! pull up node              # resistive pull to 1 (or `down` to 0)
//! supply vdd p              # rail at 1 (or `gnd` at 0)
//! output sum                # mark an observable output
//! output carry
//! ```

use crate::builder::{BuildError, NetlistBuilder};
use crate::component::{Component, Delay, GateKind, SwitchKind};
use crate::netlist::Netlist;
use crate::value::Level;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// A parse failure with its line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

/// Finds, by a second pass over `source`, the line of the statement a
/// [`BuildError`] blames: the one that made the component, or the first
/// gate or switch to name the net; failing that (a netlist with no
/// components) the last line read.
fn blamed_line(source: &str, e: &BuildError) -> usize {
    let mut statements = source.lines().enumerate().map(|(idx, raw)| {
        let mut tokens = raw.split('#').next().unwrap_or("").split_whitespace();
        (idx + 1, tokens.next().unwrap_or(""), tokens)
    });
    let line = match e {
        BuildError::BadArity { comp, .. } => statements
            .filter(|(_, keyword, _)| {
                matches!(*keyword, "input" | "gate" | "switch" | "pull" | "supply")
            })
            .nth(comp.index())
            .map(|(line, ..)| line),
        BuildError::UndrivenNet { name, .. } => statements
            .find(|(_, keyword, tokens)| {
                matches!(*keyword, "gate" | "switch") && tokens.clone().any(|t| t == name)
            })
            .map(|(line, ..)| line),
        BuildError::UnknownNet { .. } | BuildError::Empty => None,
    };
    line.unwrap_or_else(|| last_line(source))
}

/// The 1-based number of the last line of `source` (1 when it is empty).
fn last_line(source: &str) -> usize {
    source.lines().count().max(1)
}

fn gate_kind(token: &str) -> Option<GateKind> {
    Some(match token.to_ascii_uppercase().as_str() {
        "BUF" => GateKind::Buf,
        "NOT" | "INV" => GateKind::Not,
        "AND" => GateKind::And,
        "OR" => GateKind::Or,
        "NAND" => GateKind::Nand,
        "NOR" => GateKind::Nor,
        "XOR" => GateKind::Xor,
        "XNOR" => GateKind::Xnor,
        "TRI" | "TRISTATE" => GateKind::Tristate,
        _ => return None,
    })
}

fn parse_delay(token: &str, line: usize) -> Result<Delay, ParseError> {
    let spec = token.strip_prefix("d=").ok_or_else(|| ParseError {
        line,
        message: format!("expected d=RISE[,FALL], got `{token}`"),
    })?;
    let mut parts = spec.splitn(2, ',');
    let parse = |s: &str| -> Result<u32, ParseError> {
        s.parse::<u32>().map_err(|_| ParseError {
            line,
            message: format!("invalid delay `{s}`"),
        })
    };
    let rise = parse(parts.next().unwrap_or_default())?;
    let fall = match parts.next() {
        Some(f) => parse(f)?,
        None => rise,
    };
    // Zero delays parse: they are a *semantic* problem only when they
    // close a cycle, which the LS0001 lint (`analyze`) reports with the
    // offending components named — a far better diagnostic than a
    // parse-time rejection could give.
    Ok(Delay { rise, fall })
}

/// Parses the text format into a validated [`Netlist`].
///
/// ```
/// let n = logicsim_netlist::text::parse(
///     "input a\ninput b\ngate NAND y a b\noutput y\n",
/// )?;
/// assert_eq!(n.num_gates(), 1);
/// # Ok::<(), logicsim_netlist::text::ParseError>(())
/// ```
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line: the statement
/// itself for syntax errors and for netlist validation failures that
/// blame one (bad arity, an undriven net's first reader), the last line
/// read for a source with no components.
pub fn parse(source: &str) -> Result<Netlist, ParseError> {
    let mut builder: Option<NetlistBuilder> = None;
    let mut pending: Vec<(String, usize)> = Vec::new(); // outputs to mark
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let keyword = tokens.next().expect("nonempty line");
        let b = builder.get_or_insert_with(|| NetlistBuilder::new("netlist"));
        let rest: Vec<&str> = tokens.collect();
        let err = |message: String| ParseError {
            line: line_no,
            message,
        };
        match keyword {
            "circuit" => {
                let name = rest
                    .first()
                    .ok_or_else(|| err("circuit needs a name".into()))?;
                if !b.is_empty() {
                    return Err(err("`circuit` must precede all components".into()));
                }
                *b = NetlistBuilder::new(*name);
            }
            "input" => {
                let name = rest
                    .first()
                    .ok_or_else(|| err("input needs a net name".into()))?;
                b.input(*name);
            }
            "net" => {
                let name = rest.first().ok_or_else(|| err("net needs a name".into()))?;
                b.net(*name);
            }
            "gate" => {
                let kind_tok = rest
                    .first()
                    .ok_or_else(|| err("gate needs a kind".into()))?;
                let kind = gate_kind(kind_tok)
                    .ok_or_else(|| err(format!("unknown gate kind `{kind_tok}`")))?;
                let mut rest_iter = rest[1..].iter().peekable();
                let delay = if rest_iter.peek().is_some_and(|t| t.starts_with("d=")) {
                    parse_delay(rest_iter.next().expect("peeked"), line_no)?
                } else {
                    Delay::default()
                };
                let out = rest_iter
                    .next()
                    .ok_or_else(|| err("gate needs an output net".into()))?;
                let inputs: Vec<_> = rest_iter.map(|t| b.net(*t)).collect();
                if inputs.is_empty() {
                    return Err(err("gate needs at least one input".into()));
                }
                let out_net = b.net(*out);
                b.gate(kind, &inputs, out_net, delay);
            }
            "switch" => {
                if rest.len() != 4 {
                    return Err(err("switch KIND control a b".into()));
                }
                let kind = match rest[0].to_ascii_uppercase().as_str() {
                    "NMOS" => SwitchKind::Nmos,
                    "PMOS" => SwitchKind::Pmos,
                    other => return Err(err(format!("unknown switch kind `{other}`"))),
                };
                let ctl = b.net(rest[1]);
                let a = b.net(rest[2]);
                let bb = b.net(rest[3]);
                b.switch(kind, ctl, a, bb);
            }
            "pull" => {
                if rest.len() != 2 {
                    return Err(err("pull up|down NET".into()));
                }
                let level = match rest[0] {
                    "up" => Level::One,
                    "down" => Level::Zero,
                    other => return Err(err(format!("pull direction `{other}`"))),
                };
                let net = b.net(rest[1]);
                b.pull(net, level);
            }
            "supply" => {
                if rest.len() != 2 {
                    return Err(err("supply vdd|gnd NET".into()));
                }
                let level = match rest[0] {
                    "vdd" => Level::One,
                    "gnd" => Level::Zero,
                    other => return Err(err(format!("supply rail `{other}`"))),
                };
                let net = b.net(rest[1]);
                b.supply(net, level);
            }
            "output" => {
                let name = rest
                    .first()
                    .ok_or_else(|| err("output needs a net name".into()))?;
                pending.push(((*name).to_string(), line_no));
            }
            other => return Err(err(format!("unknown keyword `{other}`"))),
        }
    }
    let mut b = builder.ok_or_else(|| ParseError {
        line: last_line(source),
        message: "empty netlist source".into(),
    })?;
    for (name, line_no) in pending {
        let net = b.net(name);
        b.mark_output(net);
        let _ = line_no;
    }
    b.finish().map_err(|e| ParseError {
        line: blamed_line(source, &e),
        message: e.to_string(),
    })
}

/// Serializes a netlist back into the text format; `parse` of the
/// result reconstructs an equivalent netlist.
#[must_use]
pub fn serialize(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "circuit {}", netlist.name());
    let name = |n| netlist.net_name(n);
    for (_, comp) in netlist.iter() {
        match comp {
            Component::Input { net } => {
                let _ = writeln!(out, "input {}", name(*net));
            }
            Component::Gate {
                kind,
                inputs,
                output,
                delay,
            } => {
                let _ = write!(
                    out,
                    "gate {kind} d={},{} {}",
                    delay.rise,
                    delay.fall,
                    name(*output)
                );
                for &i in inputs {
                    let _ = write!(out, " {}", name(i));
                }
                out.push('\n');
            }
            Component::Switch {
                kind,
                control,
                a,
                b,
            } => {
                let _ = writeln!(
                    out,
                    "switch {kind} {} {} {}",
                    name(*control),
                    name(*a),
                    name(*b)
                );
            }
            Component::Pull { net, level } => {
                let dir = if *level == Level::One { "up" } else { "down" };
                let _ = writeln!(out, "pull {dir} {}", name(*net));
            }
            Component::Supply { net, level } => {
                let rail = if *level == Level::One { "vdd" } else { "gnd" };
                let _ = writeln!(out, "supply {rail} {}", name(*net));
            }
        }
    }
    for &o in netlist.outputs() {
        let _ = writeln!(out, "output {}", name(o));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const HALF_ADDER: &str = "\
# a half adder
circuit half_adder
input a
input b
gate XOR sum a b
gate AND d=2,3 carry a b
output sum
output carry
";

    #[test]
    fn parses_half_adder() {
        let n = parse(HALF_ADDER).unwrap();
        assert_eq!(n.name(), "half_adder");
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 2);
        let carry_gate = n
            .iter()
            .find_map(|(_, c)| match c {
                Component::Gate {
                    kind: GateKind::And,
                    delay,
                    ..
                } => Some(*delay),
                _ => None,
            })
            .unwrap();
        assert_eq!(carry_gate, Delay::rise_fall(2, 3));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let n = parse(HALF_ADDER).unwrap();
        let text = serialize(&n);
        let n2 = parse(&text).unwrap();
        assert_eq!(n.num_gates(), n2.num_gates());
        assert_eq!(n.num_nets(), n2.num_nets());
        assert_eq!(n.outputs().len(), n2.outputs().len());
        assert_eq!(n.name(), n2.name());
    }

    #[test]
    fn parses_switch_level_constructs() {
        let src = "\
circuit nmos_inv
input a
supply gnd g
pull up y
switch NMOS a y g
output y
";
        let n = parse(src).unwrap();
        assert_eq!(n.num_switches(), 1);
        assert_eq!(n.num_gates(), 0);
        let text = serialize(&n);
        assert!(text.contains("switch NMOS"));
        assert!(text.contains("pull up"));
        assert!(text.contains("supply gnd"));
    }

    #[test]
    fn error_reports_line_number() {
        let src = "input a\ngate FROB y a\n";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("FROB"));
    }

    #[test]
    fn arity_failure_surfaces_as_error() {
        // NOT with two inputs trips builder validation.
        let src = "input a\ninput b\ngate NOT y a b\n";
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("invalid input count"), "{e}");
        assert_eq!(e.line, 3, "{e}");
        // Comments, blank lines and statements that make no component
        // do not shift the count.
        let src = "circuit t\n# two inputs\ninput a\nnet y\n\ninput b\ngate NOT y a b\n";
        assert_eq!(parse(src).unwrap_err().line, 7);
    }

    #[test]
    fn undriven_net_rejected() {
        let src = "net ghost\ngate NOT y ghost\n";
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("never driven"), "{e}");
        // Blamed on the first reader, not on the declaration.
        assert_eq!(e.line, 2, "{e}");
    }

    #[test]
    fn empty_source_rejected() {
        // No statement to blame: the error names the last line read.
        assert_eq!(parse("# only comments\n\n").unwrap_err().line, 2);
        assert_eq!(parse("").unwrap_err().line, 1);
        let e = parse("circuit hollow\nnet y\noutput y\n").unwrap_err();
        assert!(e.message.contains("no components"), "{e}");
        assert_eq!(e.line, 3, "{e}");
    }

    #[test]
    fn circuit_must_come_first() {
        let src = "input a\ncircuit late\n";
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("precede"), "{e}");
    }

    #[test]
    fn bad_delay_rejected() {
        for bad in ["gate AND d=x y a b", "gate AND d= y a b"] {
            let src = format!("input a\ninput b\n{bad}\n");
            assert!(parse(&src).is_err(), "{bad}");
        }
    }

    #[test]
    fn zero_delay_parses_for_lint_to_catch() {
        // `d=0` is accepted structurally; the LS0001 analysis decides
        // whether it is harmful (only when it closes a cycle).
        let n = parse("input a\ninput b\ngate AND d=0 y a b\noutput y\n").unwrap();
        let report = crate::analyze::analyze(&n);
        assert!(!report.has_errors());
        let looped = parse("input e\ngate NAND d=0 y e y\noutput y\n").unwrap();
        let report = crate::analyze::analyze(&looped);
        assert!(report.has_errors());
    }
}
