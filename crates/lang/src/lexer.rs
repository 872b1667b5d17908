//! The FlexBPF lexer.
//!
//! Hand-rolled, position-tracking, with `//` line comments and `/* */`
//! block comments. Produces a flat `Vec<Token>` terminated by `Eof`.

use crate::token::{Token, TokenKind};
use flexnet_types::{FlexError, Result};

/// Lexes FlexBPF (or FlexBPF-patch) source text into tokens.
pub fn lex(src: &str) -> Result<Vec<Token>> {
    // Reserved once: growing the vector token by token copied it about
    // log2(tokens) times, a third of lexing a tenant source. Source runs
    // four or more bytes a token once indentation is counted.
    let mut tokens = Vec::with_capacity(src.len() / 4);
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! push {
        ($kind:expr, $l:expr, $c:expr) => {
            tokens.push(Token {
                kind: $kind,
                line: $l,
                col: $c,
            })
        };
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        let (tl, tc) = (line, col);
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                i += 2;
                col += 2;
                let mut closed = false;
                while i + 1 < bytes.len() {
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        col += 2;
                        closed = true;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
                if !closed {
                    return Err(FlexError::parse(tl, tc, "unterminated block comment"));
                }
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                col += 1;
                let mut closed = false;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    i += 1;
                    col += 1;
                    if ch == '"' {
                        closed = true;
                        break;
                    }
                    if ch == '\n' {
                        return Err(FlexError::parse(tl, tc, "newline in string literal"));
                    }
                    s.push(ch);
                }
                if !closed {
                    return Err(FlexError::parse(tl, tc, "unterminated string literal"));
                }
                push!(TokenKind::Str(s), tl, tc);
            }
            '0'..='9' => {
                let start = i;
                let value = if c == '0' && i + 1 < bytes.len() && (bytes[i + 1] | 32) == b'x' {
                    i += 2;
                    let hex_start = i;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_hexdigit() {
                        i += 1;
                    }
                    if i == hex_start {
                        return Err(FlexError::parse(tl, tc, "hex literal with no digits"));
                    }
                    u64::from_str_radix(&src[hex_start..i], 16)
                        .map_err(|_| FlexError::parse(tl, tc, "hex literal out of range"))?
                } else {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    src[start..i]
                        .parse::<u64>()
                        .map_err(|_| FlexError::parse(tl, tc, "integer literal out of range"))?
                };
                if i < bytes.len() && (bytes[i].is_ascii_alphabetic() || bytes[i] == b'_') {
                    return Err(FlexError::parse(
                        tl,
                        tc,
                        "identifier may not start with a digit",
                    ));
                }
                col += (i - start) as u32;
                push!(TokenKind::Int(value), tl, tc);
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                col += (i - start) as u32;
                push!(TokenKind::Ident(src[start..i].to_string()), tl, tc);
            }
            _ => {
                // Two-character operator lookahead on raw bytes: slicing the
                // &str here would panic on multi-byte UTF-8 input.
                let two: &[u8] = if i + 1 < bytes.len() {
                    &bytes[i..i + 2]
                } else {
                    &[]
                };
                let (kind, width) = match two {
                    b"==" => (TokenKind::Eq, 2),
                    b"!=" => (TokenKind::Ne, 2),
                    b"<=" => (TokenKind::Le, 2),
                    b">=" => (TokenKind::Ge, 2),
                    b"&&" => (TokenKind::AndAnd, 2),
                    b"||" => (TokenKind::OrOr, 2),
                    b"<<" => (TokenKind::Shl, 2),
                    b">>" => (TokenKind::Shr, 2),
                    _ => match c {
                        '{' => (TokenKind::LBrace, 1),
                        '}' => (TokenKind::RBrace, 1),
                        '(' => (TokenKind::LParen, 1),
                        ')' => (TokenKind::RParen, 1),
                        '[' => (TokenKind::LBracket, 1),
                        ']' => (TokenKind::RBracket, 1),
                        ';' => (TokenKind::Semi, 1),
                        ':' => (TokenKind::Colon, 1),
                        ',' => (TokenKind::Comma, 1),
                        '.' => (TokenKind::Dot, 1),
                        '=' => (TokenKind::Assign, 1),
                        '<' => (TokenKind::Lt, 1),
                        '>' => (TokenKind::Gt, 1),
                        '+' => (TokenKind::Plus, 1),
                        '-' => (TokenKind::Minus, 1),
                        '*' => (TokenKind::Star, 1),
                        '/' => (TokenKind::Slash, 1),
                        '%' => (TokenKind::Percent, 1),
                        '&' => (TokenKind::Amp, 1),
                        '|' => (TokenKind::Pipe, 1),
                        '^' => (TokenKind::Caret, 1),
                        '~' => (TokenKind::Tilde, 1),
                        '!' => (TokenKind::Bang, 1),
                        other => {
                            return Err(FlexError::parse(
                                tl,
                                tc,
                                format!("unexpected character `{other}`"),
                            ))
                        }
                    },
                };
                i += width;
                col += width as u32;
                push!(kind, tl, tc);
            }
        }
    }
    push!(TokenKind::Eof, line, col);
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_idents_and_ints() {
        assert_eq!(
            kinds("foo 42 0x1f"),
            vec![
                TokenKind::Ident("foo".into()),
                TokenKind::Int(42),
                TokenKind::Int(0x1f),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_two_char_operators_greedily() {
        assert_eq!(
            kinds("== != <= >= && || << >>"),
            vec![
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Shl,
                TokenKind::Shr,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn single_char_fallbacks() {
        assert_eq!(
            kinds("< > = & |"),
            vec![
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Assign,
                TokenKind::Amp,
                TokenKind::Pipe,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // comment\nb /* multi\nline */ c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn string_literals() {
        assert_eq!(
            kinds(r#"matching "acl*""#),
            vec![
                TokenKind::Ident("matching".into()),
                TokenKind::Str("acl*".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn errors_carry_positions() {
        let err = lex("a\n  @").unwrap_err();
        match err {
            flexnet_types::FlexError::Parse { line, col, .. } => {
                assert_eq!((line, col), (2, 3));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_unterminated_constructs() {
        assert!(lex("/* never closed").is_err());
        assert!(lex("\"never closed").is_err());
        assert!(lex("\"newline\nin string\"").is_err());
    }

    #[test]
    fn rejects_digit_prefixed_ident_and_bad_hex() {
        assert!(lex("1abc").is_err());
        assert!(lex("0x").is_err());
    }

    #[test]
    fn lexes_hex_upper_and_lower() {
        assert_eq!(kinds("0XFF")[0], TokenKind::Int(255));
        assert_eq!(kinds("0xff")[0], TokenKind::Int(255));
    }
}
