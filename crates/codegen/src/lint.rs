//! A miniature syntactic sanity checker for generated C sources.
//!
//! We cannot run `nvcc` or an OpenCL driver here, so the emitters'
//! well-formedness is enforced by construction (the device type check on
//! the IR) plus this token-level linter over the final text: balanced
//! delimiters, no empty statements from botched substitutions, statements
//! terminated, and every identifier the body uses declared somewhere in
//! the translation unit (parameters, declarations, globals, builtins).
//! Every golden test runs it, and the `Compiler` runs it on every compile,
//! surfacing findings as `A0501`/`A0502` diagnostics through the verifier
//! pipeline ([`lint_diagnostics`]).
//!
//! Comments (`//` and `/* */`, including multi-line) and string literals
//! are stripped — with line structure preserved — before any token or
//! delimiter scanning, so a brace or stray word inside either never
//! produces a finding.

use hipacc_analysis::Diagnostic;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// A lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

/// Words that are part of C/CUDA/OpenCL rather than program identifiers.
const KEYWORDS: &[&str] = &[
    "if",
    "else",
    "for",
    "while",
    "return",
    "goto",
    "int",
    "float",
    "bool",
    "void",
    "unsigned",
    "const",
    "true",
    "false",
    "struct",
    "sizeof",
    "char",
    "uchar",
    "ushort",
    "size_t",
    // CUDA
    "__global__",
    "__device__",
    "__constant__",
    "__shared__",
    "__syncthreads",
    "texture",
    "cudaTextureType1D",
    "cudaTextureType2D",
    "cudaReadModeElementType",
    "tex1Dfetch",
    "tex2D",
    "threadIdx",
    "blockIdx",
    "blockDim",
    "gridDim",
    "dim3",
    "cudaMemcpyToSymbol",
    // OpenCL
    "__kernel",
    "__local",
    "__private",
    "__global",
    "__constant",
    "read_only",
    "write_only",
    "read_write",
    "image2d_t",
    "sampler_t",
    "barrier",
    "CLK_LOCAL_MEM_FENCE",
    "CLK_NORMALIZED_COORDS_FALSE",
    "CLK_ADDRESS_NONE",
    "CLK_ADDRESS_CLAMP_TO_EDGE",
    "CLK_ADDRESS_CLAMP",
    "CLK_ADDRESS_REPEAT",
    "CLK_FILTER_NEAREST",
    "get_local_id",
    "get_group_id",
    "get_local_size",
    "get_num_groups",
    "read_imagef",
    "write_imagef",
    "int2",
    "float4",
    // Math library
    "expf",
    "exp",
    "logf",
    "log",
    "sqrtf",
    "sqrt",
    "rsqrtf",
    "rsqrt",
    "fabsf",
    "fabs",
    "sinf",
    "sin",
    "cosf",
    "cos",
    "powf",
    "pow",
    "min",
    "max",
    "floorf",
    "floor",
    "roundf",
    "round",
    "__expf",
    "__logf",
    "__sinf",
    "__cosf",
    "__powf",
    "__fsqrt_rn",
    "__frsqrt_rn",
];

/// Replace comments (`//`, `/* */` — possibly spanning lines) and string
/// literals with spaces, preserving every newline so line numbers in
/// findings still refer to the original source.
fn strip_comments_and_strings(source: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment,
        Str,
    }
    let mut out = String::with_capacity(source.len());
    let mut st = St::Code;
    let mut chars = source.chars().peekable();
    while let Some(c) = chars.next() {
        match st {
            St::Code => match c {
                '/' if chars.peek() == Some(&'/') => {
                    chars.next();
                    out.push_str("  ");
                    st = St::LineComment;
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    out.push_str("  ");
                    st = St::BlockComment;
                }
                '"' => {
                    out.push(' ');
                    st = St::Str;
                }
                _ => out.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    out.push('\n');
                    st = St::Code;
                } else {
                    out.push(' ');
                }
            }
            St::BlockComment => {
                if c == '*' && chars.peek() == Some(&'/') {
                    chars.next();
                    out.push_str("  ");
                    st = St::Code;
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::Str => {
                if c == '\\' {
                    // Skip the escaped character (handles \" and \\).
                    if let Some(e) = chars.next() {
                        out.push(' ');
                        if e == '\n' {
                            out.push('\n');
                        }
                    }
                    out.push(' ');
                } else if c == '"' {
                    out.push(' ');
                    st = St::Code;
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
        }
    }
    out
}

/// Check balanced `()`, `{}`, `[]` over comment-stripped source and
/// collect per-line errors.
fn check_delimiters(stripped: &str, errors: &mut Vec<LintError>) {
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (lineno, code) in stripped.lines().enumerate() {
        for c in code.chars() {
            match c {
                '(' | '{' | '[' => stack.push((c, lineno + 1)),
                ')' | '}' | ']' => {
                    let expected = match c {
                        ')' => '(',
                        '}' => '{',
                        _ => '[',
                    };
                    match stack.pop() {
                        Some((open, _)) if open == expected => {}
                        Some((open, at)) => errors.push(LintError {
                            line: lineno + 1,
                            message: format!("`{c}` closes `{open}` opened on line {at}"),
                        }),
                        None => errors.push(LintError {
                            line: lineno + 1,
                            message: format!("unmatched `{c}`"),
                        }),
                    }
                }
                _ => {}
            }
        }
    }
    for (open, at) in stack {
        errors.push(LintError {
            line: at,
            message: format!("`{open}` never closed"),
        });
    }
}

/// Whether a word introduces a declaration: after it (and any further
/// type words, `*` and `const`) comes the declared identifier.
fn is_type_word(t: &str) -> bool {
    matches!(
        t,
        "int"
            | "float"
            | "bool"
            | "char"
            | "unsigned"
            | "uchar"
            | "ushort"
            | "image2d_t"
            | "sampler_t"
            | "dim3"
            | "size_t"
            | "cl_mem"
            | "cl_kernel"
            | "cl_image_format"
            | "texture"
    )
}

/// 64-bit FNV-1a for the lint's sets of short words, where SipHash's
/// setup costs more than hashing the word.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A set of words borrowed from the source or the keyword table.
type WordSet<'a> = HashSet<&'a str, BuildHasherDefault<Fnv>>;

/// [`KEYWORDS`] as a set, built once per process.
fn keywords() -> &'static WordSet<'static> {
    static SET: OnceLock<WordSet<'static>> = OnceLock::new();
    SET.get_or_init(|| KEYWORDS.iter().copied().collect())
}

/// Collect identifiers *introduced* by a line (declarations, parameters,
/// array declarations, texture references). `tokens` are the line's
/// tokens with their byte offsets.
fn declared_on_line<'a>(code: &str, tokens: &[(usize, &'a str)], declared: &mut WordSet<'a>) {
    let last_identifier = |end: usize| {
        tokens
            .iter()
            .rev()
            .find(|&&(at, t)| at < end && is_identifier(t))
            .map(|&(_, t)| t)
    };
    // Function definitions: the identifier right before the parameter
    // list after `void` / `__global__ void` / `__kernel void`.
    if let Some(paren) = code.find('(') {
        if code[..paren].contains("void") {
            declared.extend(last_identifier(paren));
        }
    }
    // Parameter lists and declarations share the shape `<type tokens> name`
    // where name is the identifier before `=`, `[`, `,`, `)` or `;`.
    // A crude declaration scan: after a type keyword, the next identifier
    // is declared.
    let mut i = 0;
    while i < tokens.len() {
        if is_type_word(tokens[i].1) {
            // Skip further type tokens and pointer stars.
            let mut j = i + 1;
            while j < tokens.len()
                && (is_type_word(tokens[j].1) || matches!(tokens[j].1, "*" | "const"))
            {
                j += 1;
            }
            if j < tokens.len() && is_identifier(tokens[j].1) {
                declared.insert(tokens[j].1);
            }
            i = j;
        }
        i += 1;
    }
    // Texture declarations: `texture<float, ...> _texIN;`
    if code.trim_start().starts_with("texture<") {
        declared.extend(last_identifier(code.len()));
    }
}

fn is_identifier(t: &str) -> bool {
    let mut chars = t.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Append the words (runs of ASCII alphanumerics and `_`) and `*`s of a
/// line to `out`, as slices of it with their byte offsets.
fn tokenize<'a>(code: &'a str, out: &mut Vec<(usize, &'a str)>) {
    let mut start = None;
    for (i, c) in code.char_indices() {
        if c.is_ascii_alphanumeric() || c == '_' {
            start.get_or_insert(i);
            continue;
        }
        if let Some(s) = start.take() {
            out.push((s, &code[s..i]));
        }
        if c == '*' {
            out.push((i, &code[i..i + 1]));
        }
    }
    if let Some(s) = start {
        out.push((s, &code[s..]));
    }
}

/// The identifier-discipline scan over comment-stripped source.
fn check_identifiers(stripped: &str, errors: &mut Vec<LintError>) {
    // Every used identifier must be declared somewhere in the unit
    // (order-insensitive — globals may follow uses in host snippets) or
    // be a known keyword/builtin. Each line is tokenized once: the
    // declaration scan reads a line's tokens, the use scan all of them.
    let mut declared = WordSet::default();
    let mut tokens: Vec<(usize, &str)> = Vec::new();
    let mut lines: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    for (lineno, code) in stripped.lines().enumerate() {
        if code.trim_start().starts_with('#') {
            continue; // preprocessor
        }
        let start = tokens.len();
        tokenize(code, &mut tokens);
        declared_on_line(code, &tokens[start..], &mut declared);
        lines.push((lineno, start..tokens.len()));
    }
    let keywords = keywords();
    for (lineno, range) in lines {
        for &(_, tok) in &tokens[range] {
            if !is_identifier(tok) {
                continue;
            }
            // Member accesses like threadIdx.x tokenize as two identifiers;
            // `x`/`y`/`z` after a builtin are fine.
            if matches!(tok, "x" | "y" | "z" | "f" | "NULL") {
                continue;
            }
            if keywords.contains(tok) || declared.contains(tok) {
                continue;
            }
            errors.push(LintError {
                line: lineno + 1,
                message: format!("use of undeclared identifier `{tok}`"),
            });
        }
    }
}

/// Lint a generated translation unit. Returns all findings (empty = clean).
pub fn lint_source(source: &str) -> Vec<LintError> {
    let stripped = strip_comments_and_strings(source);
    let mut errors = Vec::new();
    check_delimiters(&stripped, &mut errors);
    check_identifiers(&stripped, &mut errors);
    errors
}

/// Lint a generated translation unit and report findings as structured
/// diagnostics: delimiter problems as `A0501`, undeclared identifiers as
/// `A0502`, both error severity (malformed generated code must never
/// reach a vendor toolchain).
pub fn lint_diagnostics(source: &str, kernel: &str) -> Vec<Diagnostic> {
    let stripped = strip_comments_and_strings(source);
    let mut delims = Vec::new();
    check_delimiters(&stripped, &mut delims);
    let mut idents = Vec::new();
    check_identifiers(&stripped, &mut idents);
    delims
        .into_iter()
        .map(|e| ("A0501", e))
        .chain(idents.into_iter().map(|e| ("A0502", e)))
        .map(|(code, e)| {
            Diagnostic::error(code, kernel, e.message).with_lines(e.line as u32, e.line as u32)
        })
        .collect()
}

/// Lines of source context shown around each finding by [`assert_clean`].
const CONTEXT_LINES: usize = 3;
/// Cap on findings rendered by [`assert_clean`].
const MAX_FINDINGS: usize = 10;

/// Convenience assertion used by tests: lint and panic with a readable
/// report on any finding.
///
/// Findings are reported through the structured [`Diagnostic`] pipeline
/// (the same `A0501`/`A0502` records `Compiler::compile` attaches), each
/// followed by a few lines of source context around the finding — not
/// the whole translation unit, which for a nine-region kernel runs to
/// hundreds of lines and buried the actual findings.
pub fn assert_clean(source: &str) {
    let diags = lint_diagnostics(source, "generated source");
    if diags.is_empty() {
        return;
    }
    let lines: Vec<&str> = source.lines().collect();
    let mut msg = format!(
        "generated source failed lint ({} finding(s)):\n",
        diags.len()
    );
    for d in diags.iter().take(MAX_FINDINGS) {
        msg.push_str(&format!("  {d}\n"));
        if let Some((first, _)) = d.lines {
            let at = (first as usize).saturating_sub(1);
            let lo = at.saturating_sub(CONTEXT_LINES);
            let hi = (at + CONTEXT_LINES + 1).min(lines.len());
            for (i, line) in lines.iter().enumerate().take(hi).skip(lo) {
                let marker = if i == at { ">" } else { " " };
                msg.push_str(&format!("  {marker} {:>4} | {line}\n", i + 1));
            }
        }
    }
    if diags.len() > MAX_FINDINGS {
        msg.push_str(&format!(
            "  ... and {} more finding(s)\n",
            diags.len() - MAX_FINDINGS
        ));
    }
    msg.push_str(&format!(
        "(source is {} lines; rerun lint_diagnostics() for the full record)",
        lines.len()
    ));
    panic!("{msg}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_code_passes() {
        let src = "float add(float a, float b) {\n    return a + b;\n}\n";
        assert!(lint_source(src).is_empty());
    }

    #[test]
    fn unbalanced_braces_detected() {
        let errors = lint_source("void f() {\n    if (1) {\n}\n");
        assert!(errors.iter().any(|e| e.message.contains("never closed")));
    }

    #[test]
    fn mismatched_delimiters_detected() {
        let errors = lint_source("int x = (1 + 2];");
        assert!(!errors.is_empty());
    }

    #[test]
    fn undeclared_identifier_detected() {
        let errors = lint_source("void f() {\n    float a = ghost + 1.0f;\n}\n");
        assert!(
            errors.iter().any(|e| e.message.contains("ghost")),
            "{errors:?}"
        );
    }

    #[test]
    fn comments_are_ignored() {
        let src = "void f() { // an ( unbalanced comment with ghost\n}\n";
        assert!(lint_source(src).is_empty());
    }

    #[test]
    fn block_comments_are_ignored() {
        // An unbalanced `{`, a stray `]` and an undeclared word, all
        // inside /* */ — including across lines.
        let src = "void f() { /* { ] ghost */\n/* spans\n   lines } phantom */\n}\n";
        assert!(lint_source(src).is_empty(), "{:?}", lint_source(src));
    }

    #[test]
    fn string_literals_are_ignored() {
        let src = "void f(char *s) {\n    s = \"){ ghost \\\" ]\";\n}\n";
        assert!(lint_source(src).is_empty(), "{:?}", lint_source(src));
    }

    #[test]
    fn stripping_preserves_line_numbers() {
        let src = "void f() {\n/* a\n   b */ ghost;\n}\n";
        let errors = lint_source(src);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].line, 3, "{errors:?}");
    }

    #[test]
    fn diagnostics_carry_codes_and_lines() {
        let d = lint_diagnostics("void f() {\n    ghost;\n", "k");
        let codes: Vec<&str> = d.iter().map(|x| x.code).collect();
        assert!(codes.contains(&"A0501"), "{d:?}");
        assert!(codes.contains(&"A0502"), "{d:?}");
        assert!(d.iter().all(|x| x.is_error() && x.lines.is_some()));
        let ident = d.iter().find(|x| x.code == "A0502").unwrap();
        assert_eq!(ident.lines, Some((2, 2)));
    }

    #[test]
    fn generated_kernels_pass_lint() {
        use crate::{BoundarySpec, CompileSpec, Compiler};
        use hipacc_hwmodel::device::tesla_c2050;
        use hipacc_hwmodel::Backend;
        use hipacc_image::BoundaryMode;
        use hipacc_ir::{Expr, KernelBuilder, ScalarType};

        let mut b = KernelBuilder::new("blur", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
        b.for_inclusive("yf", Expr::int(-1), Expr::int(1), |b, yf| {
            b.for_inclusive("xf", Expr::int(-1), Expr::int(1), |b, xf| {
                b.add_assign(&acc, b.read_at(&input, xf.get(), yf.get()));
            });
        });
        b.output(acc.get() / Expr::float(9.0));
        let kernel = b.finish();
        for backend in [Backend::Cuda, Backend::OpenCl] {
            let spec = CompileSpec::new(tesla_c2050(), backend, 512, 512)
                .with_boundary("IN", BoundarySpec::new(BoundaryMode::Mirror, 3, 3));
            let out = Compiler::new().compile(&kernel, &spec).unwrap();
            assert_clean(&out.source);
        }
    }
}
