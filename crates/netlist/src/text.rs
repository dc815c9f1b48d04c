//! A line-oriented text netlist format, with parser and serializer.
//!
//! *lsim* — the simulator the paper's data came from — was a UNIX tool
//! reading circuit descriptions from files; this module provides the
//! equivalent front end so circuits can live outside Rust code.
//!
//! # Format
//!
//! One statement per line; `#` starts a comment; blank lines ignored.
//! Tokens are separated by ASCII blanks. Nets are numbered in order of
//! first mention (a gate's inputs before its output). A statement takes
//! exactly the operands shown, `circuit` comes before everything else,
//! a net is an `input` at most once, and `output` names a net some
//! other statement declares (anywhere in the file).
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
use crate::component::{Component, ComponentRef, Delay, GateKind, SwitchKind};
use crate::netlist::Netlist;
use crate::value::Level;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::ops::Range;

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
        let mut tokens = tokens_of(raw);
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

/// The tokens of one line: slices of it between ASCII blanks, up to the
/// comment. Nothing is copied.
fn tokens_of(raw: &str) -> std::str::SplitAsciiWhitespace<'_> {
    let code = raw.find('#').map_or(raw, |comment| &raw[..comment]);
    code.split_ascii_whitespace()
}

/// The 1-based number of the last line of `source` (1 when it is empty).
fn last_line(source: &str) -> usize {
    source.lines().count().max(1)
}

/// Text per net, for sizing the name look-up before the first statement:
/// the tiled benchmark circuits serialize to 58-88 bytes per net. A
/// file with shorter statements only makes the look-up grow as it goes.
const BYTES_PER_NET: usize = 64;

/// Gate kinds by their spellings in the text format (matched without
/// regard to ASCII case).
const GATE_KINDS: [(&str, GateKind); 11] = [
    ("BUF", GateKind::Buf),
    ("NOT", GateKind::Not),
    ("INV", GateKind::Not),
    ("AND", GateKind::And),
    ("OR", GateKind::Or),
    ("NAND", GateKind::Nand),
    ("NOR", GateKind::Nor),
    ("XOR", GateKind::Xor),
    ("XNOR", GateKind::Xnor),
    ("TRI", GateKind::Tristate),
    ("TRISTATE", GateKind::Tristate),
];

fn gate_kind(token: &str) -> Option<GateKind> {
    GATE_KINDS
        .iter()
        .find(|(name, _)| token.eq_ignore_ascii_case(name))
        .map(|&(_, kind)| kind)
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

/// Statements per block. The name pass reads the look-up slots of all
/// of a block's names before it interns the first, so that where the
/// table is larger than the cache their misses overlap.
const BLOCK: usize = 32;

/// What a statement makes, as the statement pass has checked it.
enum What<'a> {
    Circuit(&'a str),
    Input,
    Net,
    /// Its names are the inputs in pin order, then the output.
    Gate(GateKind, Delay),
    /// Its names are the control, then the two channel terminals.
    Switch(SwitchKind),
    Pull(Level),
    Supply(Level),
    Output(&'a str),
}

/// A statement whose syntax is checked: its line, what it makes, and
/// where its net names are in the block's list of names.
struct Statement<'a> {
    line: usize,
    what: What<'a>,
    names: Range<usize>,
}

/// The statement pass over one line: tokenises it and checks its
/// syntax, pushing the statement's net names, each with its hash, onto
/// `names` in the order they are numbered. `None` for a line that holds
/// no statement.
fn scan<'a>(
    raw: &'a str,
    line: usize,
    b: &NetlistBuilder,
    names: &mut Vec<(&'a str, u64)>,
) -> Result<Option<Statement<'a>>, ParseError> {
    let mut tokens = tokens_of(raw);
    let Some(keyword) = tokens.next() else {
        return Ok(None);
    };
    let err = |message: String| ParseError { line, message };
    // The operand of a statement that takes exactly one.
    let mut only = |missing: &str| {
        let operand = tokens.next().ok_or_else(|| err(missing.into()))?;
        match tokens.next() {
            None => Ok(operand),
            Some(extra) => Err(err(format!(
                "unexpected `{extra}` after `{keyword} {operand}`"
            ))),
        }
    };
    let hashed = |name: &'a str| (name, b.name_hash(name));
    let start = names.len();
    let what = match keyword {
        "circuit" => What::Circuit(only("circuit needs a name")?),
        "input" => {
            names.push(hashed(only("input needs a net name")?));
            What::Input
        }
        "net" => {
            names.push(hashed(only("net needs a name")?));
            What::Net
        }
        "gate" => {
            let kind_tok = tokens
                .next()
                .ok_or_else(|| err("gate needs a kind".into()))?;
            let kind = gate_kind(kind_tok)
                .ok_or_else(|| err(format!("unknown gate kind `{kind_tok}`")))?;
            let mut next = tokens.next();
            let delay = match next {
                Some(spec) if spec.starts_with("d=") => {
                    next = tokens.next();
                    parse_delay(spec, line)?
                }
                _ => Delay::default(),
            };
            let out = next.ok_or_else(|| err("gate needs an output net".into()))?;
            // Inputs are numbered before the output, in pin order.
            names.extend(tokens.map(hashed));
            if names.len() == start {
                return Err(err("gate needs at least one input".into()));
            }
            names.push(hashed(out));
            What::Gate(kind, delay)
        }
        "switch" => {
            let operands = [(); 5].map(|()| tokens.next());
            let [Some(kind), Some(control), Some(a), Some(bb), None] = operands else {
                return Err(err("switch KIND control a b".into()));
            };
            let kind = if kind.eq_ignore_ascii_case("NMOS") {
                SwitchKind::Nmos
            } else if kind.eq_ignore_ascii_case("PMOS") {
                SwitchKind::Pmos
            } else {
                let other = kind.to_ascii_uppercase();
                return Err(err(format!("unknown switch kind `{other}`")));
            };
            names.extend([control, a, bb].map(hashed));
            What::Switch(kind)
        }
        "pull" => {
            let [Some(direction), Some(net), None] = [(); 3].map(|()| tokens.next()) else {
                return Err(err("pull up|down NET".into()));
            };
            let level = match direction {
                "up" => Level::One,
                "down" => Level::Zero,
                other => return Err(err(format!("pull direction `{other}`"))),
            };
            names.push(hashed(net));
            What::Pull(level)
        }
        "supply" => {
            let [Some(rail), Some(net), None] = [(); 3].map(|()| tokens.next()) else {
                return Err(err("supply vdd|gnd NET".into()));
            };
            let level = match rail {
                "vdd" => Level::One,
                "gnd" => Level::Zero,
                other => return Err(err(format!("supply rail `{other}`"))),
            };
            names.push(hashed(net));
            What::Supply(level)
        }
        "output" => What::Output(only("output needs a net name")?),
        other => return Err(err(format!("unknown keyword `{other}`"))),
    };
    Ok(Some(Statement {
        line,
        what,
        names: start..names.len(),
    }))
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
/// The file is read a block of statements at a time, in two passes: the
/// statement pass tokenises and checks each line of the block and hashes
/// its net names; the name pass reads the look-up slots of every one of
/// those hashes (independent loads, whose cache misses overlap), then
/// interns the names and builds the components in file order.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line, the first in
/// file order: the statement itself for syntax errors and for netlist
/// validation failures that blame one (bad arity, an undriven net's first
/// reader), the last line read for a source with no components.
pub fn parse(source: &str) -> Result<Netlist, ParseError> {
    let mut b = NetlistBuilder::new("netlist");
    b.expect_names(source.len() / BYTES_PER_NET);
    let mut statements = 0usize;
    // Outputs are marked last (a net may be declared after the statement
    // that exports it): the name and line of each, as slices of `source`.
    let mut outputs: Vec<(&str, usize)> = Vec::new();
    // Per net id, whether an `input` statement drives it.
    let mut is_input: Vec<bool> = Vec::new();
    // A gate's input pins, reused from statement to statement: the
    // builder copies them into the netlist's one pin array.
    let mut pins = Vec::new();
    // One block's statements and their net names, reused block to block.
    let mut block = Vec::with_capacity(BLOCK);
    let mut names = Vec::new();
    let mut lines = source.lines().enumerate();
    let mut more = true;
    while more {
        block.clear();
        names.clear();
        let mut syntax = Ok(());
        while block.len() < BLOCK {
            let Some((idx, raw)) = lines.next() else {
                more = false;
                break;
            };
            match scan(raw, idx + 1, &b, &mut names) {
                Ok(Some(statement)) => block.push(statement),
                Ok(None) => {}
                Err(e) => {
                    syntax = Err(e);
                    break;
                }
            }
        }
        b.touch_names(names.iter().map(|&(_, hash)| hash));
        for statement in &block {
            let line = statement.line;
            let err = |message: String| ParseError { line, message };
            let names = &names[statement.names.clone()];
            match statement.what {
                What::Circuit(name) => {
                    if !b.is_empty() {
                        return Err(err("`circuit` must precede all components".into()));
                    }
                    if b.num_nets() != 0 {
                        return Err(err("`circuit` must precede all net declarations".into()));
                    }
                    b.set_name(name);
                }
                What::Input => {
                    let net = b.net_hashed(names[0]);
                    if is_input.len() <= net.index() {
                        is_input.resize(net.index() + 1, false);
                    }
                    if std::mem::replace(&mut is_input[net.index()], true) {
                        let name = names[0].0;
                        return Err(err(format!("net `{name}` is already an input")));
                    }
                    b.add_component(Component::Input { net });
                }
                What::Net => {
                    b.net_hashed(names[0]);
                }
                What::Gate(kind, delay) => {
                    let (&out, inputs) = names.split_last().expect("a gate names its output");
                    pins.clear();
                    pins.extend(inputs.iter().map(|&name| b.net_hashed(name)));
                    let output = b.net_hashed(out);
                    b.gate(kind, &pins, output, delay);
                }
                What::Switch(kind) => {
                    let [control, a, bb] = [0, 1, 2].map(|k| b.net_hashed(names[k]));
                    b.switch(kind, control, a, bb);
                }
                What::Pull(level) => {
                    let net = b.net_hashed(names[0]);
                    b.pull(net, level);
                }
                What::Supply(level) => {
                    let net = b.net_hashed(names[0]);
                    b.supply(net, level);
                }
                What::Output(name) => outputs.push((name, line)),
            }
        }
        statements += block.len();
        // A syntax error is reported once the statements before it are
        // built, so that an error on one of those comes first.
        syntax?;
    }
    if statements == 0 {
        return Err(ParseError {
            line: last_line(source),
            message: "empty netlist source".into(),
        });
    }
    for (name, line) in outputs {
        let net = b.declared(name).ok_or_else(|| ParseError {
            line,
            message: format!("output `{name}` names a net no statement declares"),
        })?;
        b.mark_output(net);
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
            ComponentRef::Input { net } => {
                let _ = writeln!(out, "input {}", name(net));
            }
            ComponentRef::Gate {
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
                    name(output)
                );
                for &i in inputs {
                    let _ = write!(out, " {}", name(i));
                }
                out.push('\n');
            }
            ComponentRef::Switch {
                kind,
                control,
                a,
                b,
            } => {
                let _ = writeln!(
                    out,
                    "switch {kind} {} {} {}",
                    name(control),
                    name(a),
                    name(b)
                );
            }
            ComponentRef::Pull { net, level } => {
                let dir = if level == Level::One { "up" } else { "down" };
                let _ = writeln!(out, "pull {dir} {}", name(net));
            }
            ComponentRef::Supply { net, level } => {
                let rail = if level == Level::One { "vdd" } else { "gnd" };
                let _ = writeln!(out, "supply {rail} {}", name(net));
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

    /// The parser this module had before the block-at-a-time one: one
    /// statement at a time, each name interned as it is read. It is the
    /// oracle of the differential tests below, and goes when those tests
    /// have held through a release (ROADMAP item 10).
    fn parse_sequential(source: &str) -> Result<Netlist, ParseError> {
        let mut b = NetlistBuilder::new("netlist");
        b.expect_names(source.len() / BYTES_PER_NET);
        let mut statements = 0usize;
        // Outputs are marked last (a net may be declared after the statement
        // that exports it): the name and line of each, as slices of `source`.
        let mut outputs: Vec<(&str, usize)> = Vec::new();
        // Per net id, whether an `input` statement drives it.
        let mut is_input: Vec<bool> = Vec::new();
        // A gate's input pins, reused from statement to statement: the
        // builder copies them into the netlist's one pin array.
        let mut pins = Vec::new();
        for (idx, raw) in source.lines().enumerate() {
            let line_no = idx + 1;
            let mut tokens = tokens_of(raw);
            let Some(keyword) = tokens.next() else {
                continue;
            };
            let err = |message: String| ParseError {
                line: line_no,
                message,
            };
            // The operand of a statement that takes exactly one.
            let mut only = |missing: &str| {
                let operand = tokens.next().ok_or_else(|| err(missing.into()))?;
                match tokens.next() {
                    None => Ok(operand),
                    Some(extra) => Err(err(format!(
                        "unexpected `{extra}` after `{keyword} {operand}`"
                    ))),
                }
            };
            match keyword {
                "circuit" => {
                    let name = only("circuit needs a name")?;
                    if !b.is_empty() {
                        return Err(err("`circuit` must precede all components".into()));
                    }
                    if b.num_nets() != 0 {
                        return Err(err("`circuit` must precede all net declarations".into()));
                    }
                    b.set_name(name);
                }
                "input" => {
                    let name = only("input needs a net name")?;
                    let net = b.net(name);
                    if is_input.len() <= net.index() {
                        is_input.resize(net.index() + 1, false);
                    }
                    if std::mem::replace(&mut is_input[net.index()], true) {
                        return Err(err(format!("net `{name}` is already an input")));
                    }
                    b.add_component(Component::Input { net });
                }
                "net" => {
                    b.net(only("net needs a name")?);
                }
                "gate" => {
                    let kind_tok = tokens
                        .next()
                        .ok_or_else(|| err("gate needs a kind".into()))?;
                    let kind = gate_kind(kind_tok)
                        .ok_or_else(|| err(format!("unknown gate kind `{kind_tok}`")))?;
                    let mut next = tokens.next();
                    let delay = match next {
                        Some(spec) if spec.starts_with("d=") => {
                            next = tokens.next();
                            parse_delay(spec, line_no)?
                        }
                        _ => Delay::default(),
                    };
                    let out = next.ok_or_else(|| err("gate needs an output net".into()))?;
                    // Inputs are numbered before the output, in pin order.
                    pins.clear();
                    pins.extend(tokens.map(|name| b.net(name)));
                    if pins.is_empty() {
                        return Err(err("gate needs at least one input".into()));
                    }
                    let output = b.net(out);
                    b.gate(kind, &pins, output, delay);
                }
                "switch" => {
                    let operands = [(); 5].map(|()| tokens.next());
                    let [Some(kind), Some(control), Some(a), Some(bb), None] = operands else {
                        return Err(err("switch KIND control a b".into()));
                    };
                    let kind = if kind.eq_ignore_ascii_case("NMOS") {
                        SwitchKind::Nmos
                    } else if kind.eq_ignore_ascii_case("PMOS") {
                        SwitchKind::Pmos
                    } else {
                        let other = kind.to_ascii_uppercase();
                        return Err(err(format!("unknown switch kind `{other}`")));
                    };
                    let (control, a, bb) = (b.net(control), b.net(a), b.net(bb));
                    b.switch(kind, control, a, bb);
                }
                "pull" => {
                    let [Some(direction), Some(net), None] = [(); 3].map(|()| tokens.next()) else {
                        return Err(err("pull up|down NET".into()));
                    };
                    let level = match direction {
                        "up" => Level::One,
                        "down" => Level::Zero,
                        other => return Err(err(format!("pull direction `{other}`"))),
                    };
                    let net = b.net(net);
                    b.pull(net, level);
                }
                "supply" => {
                    let [Some(rail), Some(net), None] = [(); 3].map(|()| tokens.next()) else {
                        return Err(err("supply vdd|gnd NET".into()));
                    };
                    let level = match rail {
                        "vdd" => Level::One,
                        "gnd" => Level::Zero,
                        other => return Err(err(format!("supply rail `{other}`"))),
                    };
                    let net = b.net(net);
                    b.supply(net, level);
                }
                "output" => outputs.push((only("output needs a net name")?, line_no)),
                other => return Err(err(format!("unknown keyword `{other}`"))),
            }
            statements += 1;
        }
        if statements == 0 {
            return Err(ParseError {
                line: last_line(source),
                message: "empty netlist source".into(),
            });
        }
        for (name, line) in outputs {
            let net = b.declared(name).ok_or_else(|| ParseError {
                line,
                message: format!("output `{name}` names a net no statement declares"),
            })?;
            b.mark_output(net);
        }
        b.finish().map_err(|e| ParseError {
            line: blamed_line(source, &e),
            message: e.to_string(),
        })
    }

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
                ComponentRef::Gate {
                    kind: GateKind::And,
                    delay,
                    ..
                } => Some(delay),
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

    /// The error `source` is refused with.
    fn refusal(source: &str) -> ParseError {
        parse(source).expect_err(source)
    }

    #[test]
    fn output_of_an_undeclared_net_is_rejected() {
        let e = refusal("input a\ngate NOT y a\noutput y\noutput z\n");
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("`z`"), "{e}");
        // Declared further down is declared.
        let n = parse("output y\ninput a\ngate NOT y a\n").unwrap();
        assert_eq!(n.outputs(), [n.find_net("y").unwrap()]);
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        for (source, line) in [
            ("circuit c extra\ninput a\n", 1),
            ("input a extra tokens\n", 1),
            ("input a\nnet n extra\n", 2),
            ("input a\ngate NOT y a\noutput y extra\n", 3),
        ] {
            let e = refusal(source);
            assert_eq!(e.line, line, "{source:?}: {e}");
            assert!(e.message.contains("unexpected `extra`"), "{source:?}: {e}");
        }
        // A comment is not a token.
        assert!(parse("input a # the only input\n").is_ok());
    }

    #[test]
    fn net_declared_before_circuit_is_rejected() {
        let e = refusal("net early\ncircuit late\ninput a\n");
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("precede"), "{e}");
    }

    #[test]
    fn second_input_of_a_net_is_rejected() {
        let e = refusal("input a\ninput b\ninput a\ngate AND y a b\n");
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("`a` is already an input"), "{e}");
        // Declaring the net first, or reading it first, is not a second input.
        let n = parse("net a\ngate NOT y a\ninput a\n").unwrap();
        assert_eq!(n.inputs().len(), 1);
    }

    #[test]
    fn only_ascii_blanks_separate_tokens() {
        // A no-break space, a vertical tab, a next-line and a line
        // separator are bytes of the token they stand in, not blanks.
        for blank in ['\u{a0}', '\u{b}', '\u{85}', '\u{2028}'] {
            let e = refusal(&format!("input a\ninput{blank}b\n"));
            assert_eq!(e.line, 2, "{blank:?}: {e}");
            assert!(e.message.contains("unknown keyword"), "{blank:?}: {e}");
        }
        let n = parse("input a\u{a0}b\r\ngate\tNOT \x0c y a\u{a0}b\noutput y\n").unwrap();
        assert!(n.find_net("a\u{a0}b").is_some());
        assert_eq!(n.num_gates(), 1);
    }

    #[test]
    fn kinds_match_in_any_ascii_case_and_errors_keep_their_wording() {
        let n = parse("input a\ninput b\ngate nAnd y a b\nswitch pmos a y b\n").unwrap();
        assert_eq!((n.num_gates(), n.num_switches()), (1, 1));
        assert_eq!(
            refusal("input a\nswitch cmos a a a\n").message,
            "unknown switch kind `CMOS`"
        );
        assert_eq!(
            refusal("input a\nswitch NMOS a a\n").message,
            "switch KIND control a b"
        );
        assert_eq!(
            refusal("pull sideways a\n").message,
            "pull direction `sideways`"
        );
        assert_eq!(refusal("supply vdd\n").message, "supply vdd|gnd NET");
        assert_eq!(
            refusal("input a\ngate AND d=1 y\n").message,
            "gate needs at least one input"
        );
        assert_eq!(
            refusal("input a\ngate AND d=1\n").message,
            "gate needs an output net"
        );
    }

    /// Both parsers on `source`: the same netlist, or the same error.
    fn agreed(source: &str) -> Result<Netlist, ParseError> {
        let blockwise = parse(source);
        assert_eq!(blockwise, parse_sequential(source), "{source}");
        blockwise
    }

    /// `count` valid statements: `input n1`, then a chain of inverters
    /// from it. After every `gap`-th statement a comment line and a
    /// blank line follow (none when `gap` is 0).
    fn chain(count: usize, gap: usize) -> Vec<String> {
        let mut lines = Vec::new();
        for k in 1..=count {
            lines.push(match k {
                1 => "input n1".to_string(),
                _ => format!("gate NOT n{k} n{}", k - 1),
            });
            if gap != 0 && k % gap == 0 {
                lines.extend(["  # a comment".to_string(), String::new()]);
            }
        }
        lines
    }

    /// `lines`, with `bad` inserted to be statement `at` (1-based) of a
    /// file whose statements are a [`chain`] of `at + 10`: the source,
    /// and the line `bad` is on.
    fn with_statement(at: usize, gap: usize, bad: &str) -> (String, usize) {
        let mut lines = chain(at - 1, gap);
        lines.push(bad.to_string());
        let line = lines.len();
        let tail = chain(at + 10, gap).split_off(lines.len() - 1);
        lines.extend(tail);
        (lines.join("\n"), line)
    }

    #[test]
    fn an_error_at_a_block_boundary_is_found_on_its_line() {
        for (bad, wording) in [
            ("gate FROB y a", "unknown gate kind `FROB`"),
            ("net n extra", "unexpected `extra` after `net n`"),
            ("input n1", "net `n1` is already an input"),
            ("circuit late", "`circuit` must precede all components"),
            ("gate NOT a", "gate needs at least one input"),
        ] {
            for at in [2, 31, 32, 33, 34, 64, 65, 97] {
                for gap in [0, 1, 5, 31] {
                    let (source, line) = with_statement(at, gap, bad);
                    let e = agreed(&source).expect_err(&source);
                    assert_eq!((e.line, e.message.as_str()), (line, wording), "{source}");
                }
            }
        }
    }

    #[test]
    fn an_earlier_semantic_error_comes_before_a_later_syntax_error() {
        // The second `input`, then a syntax error further on in the same
        // block, in the next block, or as the next statement.
        for (second, syntax) in [(6, 10), (6, 7), (31, 32), (32, 33), (32, 40), (33, 64)] {
            let mut lines = chain(syntax + 5, 0);
            lines[second - 1] = "input n1".into();
            lines[syntax - 1] = "switch NMOS n1".into();
            let e = agreed(&lines.join("\n")).unwrap_err();
            assert_eq!(e.line, second, "{second} before {syntax}");
            assert_eq!(e.message, "net `n1` is already an input");
        }
        // With the syntax error first, it wins.
        let mut lines = chain(40, 0);
        lines[30] = "supply vcc n1".into();
        lines[33] = "input n1".into();
        assert_eq!(agreed(&lines.join("\n")).unwrap_err().line, 31);
    }

    #[test]
    fn a_late_circuit_is_refused_in_any_block() {
        let nets: Vec<String> = (0..40).map(|k| format!("net n{k}")).collect();
        for at in [1, 31, 32, 33, 40] {
            let mut lines = nets[..at].to_vec();
            lines.push("circuit late".into());
            lines.extend(chain(3, 0));
            let e = agreed(&lines.join("\n")).unwrap_err();
            assert_eq!(e.line, at + 1);
            assert_eq!(e.message, "`circuit` must precede all net declarations");
        }
        let mut lines = chain(50, 0);
        lines.insert(45, "circuit late".into());
        let e = agreed(&lines.join("\n")).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (46, "`circuit` must precede all components")
        );
    }

    #[test]
    fn the_sampler_is_valid() {
        let source = sampler();
        assert_eq!(source.lines().count(), 322);
        let n = agreed(&source).unwrap();
        assert_eq!(
            (n.num_gates(), n.num_switches(), n.outputs().len()),
            (80, 40, 40)
        );
    }

    #[test]
    fn files_that_end_at_or_across_a_block_boundary_parse_alike() {
        for count in [1, 31, 32, 33, 63, 64, 65, 200] {
            for gap in [0, 1, 7, 32] {
                let mut lines = chain(count, gap);
                lines.insert(0, "# leading comment".into());
                lines.push(format!("output n{count}"));
                let source = lines.join("\n");
                let n = agreed(&source).expect(&source);
                assert_eq!(n.num_components(), count);
            }
        }
        // Comment and blank lines only, straddling where a block ends.
        let blank: Vec<&str> = ["", "   # nothing", "\t"].repeat(40);
        let e = agreed(&blank.join("\n")).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (120, "empty netlist source"));
        // A validation error blamed on a line past the first block.
        let mut lines = chain(70, 3);
        lines.push("gate NOT z ghost".into());
        let e = agreed(&lines.join("\n")).unwrap_err();
        assert_eq!(e.line, lines.len(), "{e}");
    }

    use proptest::prelude::*;

    /// Net names for the generated files: few enough that statements
    /// meet on them, so a second `input`, a driven and an undriven read,
    /// an output of an undeclared net all turn up.
    const NETS: [&str; 24] = [
        "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p", "q", "r",
        "s", "t", "u", "v", "w", "a\u{a0}b",
    ];

    /// One line of a generated file, from a pick in `0..200` (one in
    /// about 33 picks is a line refused wherever it stands) and four
    /// 16-bit picks that fill it in.
    fn soup_line((pick, bits): (u8, u64)) -> String {
        let picks = [0, 16, 32, 48].map(|shift| (bits >> shift) as usize & 0xffff);
        let net = |k: usize| NETS[picks[k] % NETS.len()];
        let kind = ["AND", "or", "NAND", "NOT", "XOR", "TRI", "buf", "Nor"][picks[3] % 8];
        let either = |pair: [&'static str; 2]| pair[picks[3] % 2];
        match if pick < 194 { pick % 16 } else { pick } {
            0 => format!("input {}", net(0)),
            1 => format!("net {}", net(0)),
            2..=6 => format!("gate {kind} {} {} {}", net(0), net(1), net(2)),
            7 => format!(
                "gate {kind} d={},{} {} {}",
                picks[1] % 4,
                picks[2] % 3,
                net(0),
                net(1)
            ),
            8 | 9 => format!(
                "switch {} {} {} {}",
                either(["NMOS", "pmos"]),
                net(0),
                net(1),
                net(2)
            ),
            10 => format!("pull {} {}", either(["up", "down"]), net(0)),
            11 => format!("supply {} {}", either(["vdd", "gnd"]), net(0)),
            12 | 13 => format!("output {}", net(0)),
            14 => "# a comment".into(),
            15 => String::new(),
            // Refused wherever they stand (`circuit` but for the first
            // statement): a typo in a keyword, operand or delay, a
            // missing or an extra operand.
            194 => format!("circuit {}", net(0)),
            195 => format!("gate FROB {} {}", net(0), net(1)),
            196 => format!("input {} {}", net(0), net(1)),
            197 => format!("gate AND d=x {} {}", net(0), net(1)),
            198 => format!("switch NMOS {}", net(0)),
            _ => format!("inptu {}", net(0)),
        }
    }

    /// A valid file of 322 lines to mutate: twenty copies of one of
    /// every statement, each copy on nets of its own, then the outputs.
    fn sampler() -> String {
        let mut text = String::from("# twenty samplers\ncircuit sampler\n");
        for t in 0..20 {
            let _ = write!(
                text,
                "input a{t}\ninput b{t}   # two inputs\nnet early{t}\n\
                 gate NAND d=2,3 n{t} a{t} b{t}\ngate not m{t} n{t}\ngate TRI bus{t} m{t} a{t}\n\
                 switch NMOS a{t} bus{t} x{t}\nswitch pmos b{t} x{t} y{t}\npull up x{t}\n\
                 pull down y{t}\nsupply vdd rail{t}\nsupply gnd ground{t}\n\
                 gate XOR early{t} rail{t} ground{t}\n\n"
            );
        }
        for t in 0..20 {
            let _ = write!(text, "output y{t}\noutput early{t}\n");
        }
        text
    }

    proptest! {
        /// Words of the format's own alphabet, as in the netlist crate's
        /// hostile-input proptests, long enough to reach past a block.
        #[test]
        fn the_parsers_agree_on_word_soup(
            picks in proptest::collection::vec((0usize..24, 0usize..8), 0..600),
        ) {
            const WORDS: [&str; 24] = [
                "circuit", "input", "net", "gate", "switch", "pull", "supply", "output",
                "AND", "not", "TRI", "NMOS", "pmos", "up", "down", "vdd", "gnd",
                "d=1", "d=2,", "d=,3", "a", "b", "#", "\u{a0}x",
            ];
            let mut source = String::new();
            for (word, gap) in picks {
                source.push_str(WORDS[word]);
                source.push_str(["\n", " ", "\t ", "\r\n", "\n", " ", " ", "\n\n"][gap]);
            }
            prop_assert_eq!(parse(&source), parse_sequential(&source));
        }

        /// Whole statements over two dozen nets, a few refused on their
        /// own, the rest refused or not by what came before them.
        #[test]
        fn the_parsers_agree_on_statement_soup(
            lines in proptest::collection::vec(
                (0u8..200, any::<u64>()),
                0..200,
            ),
        ) {
            let source: Vec<String> = lines.into_iter().map(soup_line).collect();
            let source = source.join("\n");
            prop_assert_eq!(parse(&source), parse_sequential(&source));
        }

        /// The sampler with a few slips of the hand: a token dropped,
        /// doubled or replaced, a line dropped, doubled or moved, the
        /// file cut short.
        #[test]
        fn the_parsers_agree_on_a_mutated_valid_file(
            edits in proptest::collection::vec((0u8..7, any::<usize>(), any::<usize>()), 1..5),
        ) {
            let mut lines: Vec<Vec<String>> = sampler()
                .lines()
                .map(|l| l.split(' ').map(String::from).collect())
                .collect();
            for (kind, x, y) in edits {
                if lines.is_empty() {
                    break;
                }
                let at = x % lines.len();
                match kind {
                    0 => { lines.remove(at); }
                    1 => { let copy = lines[at].clone(); lines.insert(at, copy); }
                    2 => { let moved = lines.remove(at); lines.insert(y % (lines.len() + 1), moved); }
                    3 => lines.truncate(at),
                    _ if lines[at].is_empty() => {}
                    4 => { let t = y % lines[at].len(); lines[at].remove(t); }
                    5 => { let t = y % lines[at].len(); let copy = lines[at][t].clone(); lines[at].insert(t, copy); }
                    _ => {
                        let t = y % lines[at].len();
                        let from = &lines[(y / 7) % lines.len()];
                        lines[at][t] = from.get(y % from.len().max(1)).cloned().unwrap_or_default();
                    }
                }
            }
            let source: Vec<String> = lines.iter().map(|l| l.join(" ")).collect();
            let source = source.join("\n");
            prop_assert_eq!(parse(&source), parse_sequential(&source));
        }
    }
}
