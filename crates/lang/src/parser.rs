//! The FlexBPF parser: a hand-written recursive-descent parser with
//! precedence climbing for expressions.
//!
//! Grammar sketch (see `ast.rs` for node meanings):
//!
//! ```text
//! file        := (header_decl | program)*
//! header_decl := "header" NAME "{" "fields" "{" (NAME ":" INT ";")* "}"
//!                  [ "follows" NAME "when" NAME "." NAME "==" INT ";" ] "}"
//! program     := "program" NAME [ "kind" NAME ] "{" item* "}"
//! item        := map | counter | register | meter | service | table | handler
//! stmt        := let | if | repeat | apply | drop | forward | punt | …
//! ```

use crate::ast::*;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};
use flexnet_types::{FlexError, Result};
use std::sync::Arc;

/// Parses a FlexBPF source file (headers + programs).
pub fn parse_source(src: &str) -> Result<SourceFile> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    p.parse_file()
}

/// Parses a source that must contain exactly one program (headers allowed).
pub fn parse_program(src: &str) -> Result<Program> {
    let file = parse_source(src)?;
    match file.programs.len() {
        1 => Ok(file.programs.into_iter().next().expect("len checked")),
        n => Err(FlexError::parse(
            1,
            1,
            format!("expected exactly one program, found {n}"),
        )),
    }
}

pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    pub(crate) fn new(tokens: Vec<Token>) -> Parser {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    /// Steps over the current token and hands it out by move: the parser
    /// never backtracks, so the slot it leaves behind (an `Eof` at the same
    /// position) is never read again. The final `Eof` stays put.
    fn advance(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.pos >= last {
            return self.tokens[last].clone();
        }
        let t = &mut self.tokens[self.pos];
        let hole = Token {
            kind: TokenKind::Eof,
            line: t.line,
            col: t.col,
        };
        self.pos += 1;
        std::mem::replace(t, hole)
    }

    pub(crate) fn error_here(&self, msg: impl Into<String>) -> FlexError {
        let t = self.peek();
        FlexError::parse(t.line, t.col, msg.into())
    }

    pub(crate) fn expect(&mut self, kind: &TokenKind) -> Result<Token> {
        if &self.peek().kind == kind {
            Ok(self.advance())
        } else {
            Err(self.error_here(format!("expected {kind}, found {}", self.peek().kind)))
        }
    }

    /// Consumes an identifier token (any word), returning its text.
    pub(crate) fn ident(&mut self) -> Result<String> {
        match self.peek().kind {
            TokenKind::Ident(_) => match self.advance().kind {
                TokenKind::Ident(s) => Ok(s),
                _ => unreachable!("peeked an identifier"),
            },
            ref other => Err(self.error_here(format!("expected identifier, found {other}"))),
        }
    }

    /// Consumes a specific keyword (an identifier with exact text).
    pub(crate) fn keyword(&mut self, kw: &str) -> Result<()> {
        match &self.peek().kind {
            TokenKind::Ident(s) if s == kw => {
                self.advance();
                Ok(())
            }
            other => Err(self.error_here(format!("expected `{kw}`, found {other}"))),
        }
    }

    /// True (and consumes) when the next token is the given keyword.
    pub(crate) fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(&self.peek().kind, TokenKind::Ident(s) if s == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    pub(crate) fn int(&mut self) -> Result<u64> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.advance();
                Ok(v)
            }
            ref other => Err(self.error_here(format!("expected integer, found {other}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    pub(crate) fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    // -- file ---------------------------------------------------------------

    fn parse_file(&mut self) -> Result<SourceFile> {
        let mut file = SourceFile::default();
        while !self.at_eof() {
            if self.at_keyword("header") {
                file.headers.push(Arc::new(self.parse_header_decl()?));
            } else if self.at_keyword("program") {
                file.programs.push(self.parse_program_decl()?);
            } else {
                return Err(self.error_here(format!(
                    "expected `header` or `program`, found {}",
                    self.peek().kind
                )));
            }
        }
        Ok(file)
    }

    pub(crate) fn parse_header_decl(&mut self) -> Result<HeaderDecl> {
        self.keyword("header")?;
        let name = self.ident()?;
        self.expect(&TokenKind::LBrace)?;
        self.keyword("fields")?;
        self.expect(&TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            let fname = self.ident()?;
            self.expect(&TokenKind::Colon)?;
            let width = self.int()?;
            if width == 0 || width > 64 {
                return Err(self.error_here("field width must be 1..=64 bits"));
            }
            self.expect(&TokenKind::Semi)?;
            fields.push(FieldDecl {
                name: fname,
                width: width as u8,
            });
        }
        let follows = if self.at_keyword("follows") {
            self.keyword("follows")?;
            let prev = self.ident()?;
            self.keyword("when")?;
            let sel_proto = self.ident()?;
            self.expect(&TokenKind::Dot)?;
            let sel_field = self.ident()?;
            self.expect(&TokenKind::Eq)?;
            let value = self.int()?;
            self.expect(&TokenKind::Semi)?;
            if sel_proto != prev {
                return Err(self.error_here(format!(
                    "follows clause must select on the predecessor `{prev}`, found `{sel_proto}`"
                )));
            }
            Some(FollowsClause {
                prev_proto: prev,
                select_field: sel_field,
                value,
            })
        } else {
            None
        };
        self.expect(&TokenKind::RBrace)?;
        Ok(HeaderDecl {
            name,
            fields,
            follows,
        })
    }

    fn parse_program_decl(&mut self) -> Result<Program> {
        self.keyword("program")?;
        let name = self.ident()?;
        let kind = if self.eat_keyword("kind") {
            match self.ident()?.as_str() {
                "switch" => ProgramKind::Switch,
                "nic" => ProgramKind::Nic,
                "host" => ProgramKind::Host,
                "any" => ProgramKind::Any,
                other => {
                    return Err(self.error_here(format!(
                        "unknown program kind `{other}` (expected switch/nic/host/any)"
                    )))
                }
            }
        } else {
            ProgramKind::Any
        };
        self.expect(&TokenKind::LBrace)?;
        let mut program = Program::empty(&name, kind);
        while !self.eat(&TokenKind::RBrace) {
            if let Some(state) = self.try_parse_state_decl()? {
                program.states.push(Arc::new(state));
            } else if self.at_keyword("service") {
                program.services.push(Arc::new(self.parse_service_decl()?));
            } else if self.at_keyword("table") {
                program.tables.push(Arc::new(self.parse_table_decl()?));
            } else if self.at_keyword("handler") {
                program.handlers.push(Arc::new(self.parse_handler()?));
            } else {
                return Err(self.error_here(format!(
                    "expected a program item, found {}",
                    self.peek().kind
                )));
            }
        }
        Ok(program)
    }

    /// Parses a state declaration when the cursor is on one of the state
    /// keywords (`map`/`counter`/`register`/`meter`); `Ok(None)` otherwise.
    /// Shared between the program parser and the patch DSL parser.
    pub(crate) fn try_parse_state_decl(&mut self) -> Result<Option<StateDecl>> {
        if self.at_keyword("map") {
            return Ok(Some(self.parse_map_decl()?));
        }
        if self.at_keyword("counter") {
            self.keyword("counter")?;
            let n = self.ident()?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Some(StateDecl {
                name: n,
                kind: StateKind::Counter,
                size: 1,
            }));
        }
        if self.at_keyword("register") {
            self.keyword("register")?;
            let n = self.ident()?;
            self.expect(&TokenKind::Colon)?;
            let width = self.parse_width_ty()?;
            self.expect(&TokenKind::LBracket)?;
            let size = self.int()?;
            self.expect(&TokenKind::RBracket)?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Some(StateDecl {
                name: n,
                kind: StateKind::Register { width },
                size,
            }));
        }
        if self.at_keyword("meter") {
            self.keyword("meter")?;
            let n = self.ident()?;
            self.keyword("rate")?;
            let rate = self.int()?;
            self.keyword("burst")?;
            let burst = self.int()?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Some(StateDecl {
                name: n,
                kind: StateKind::Meter {
                    rate_pps: rate,
                    burst,
                },
                size: 1,
            }));
        }
        Ok(None)
    }

    fn parse_map_decl(&mut self) -> Result<StateDecl> {
        self.keyword("map")?;
        let name = self.ident()?;
        self.expect(&TokenKind::Colon)?;
        self.keyword("map")?;
        self.expect(&TokenKind::Lt)?;
        let key_width = self.parse_width_ty()?;
        self.expect(&TokenKind::Comma)?;
        let value_width = self.parse_width_ty()?;
        self.expect(&TokenKind::Gt)?;
        self.expect(&TokenKind::LBracket)?;
        let size = self.int()?;
        self.expect(&TokenKind::RBracket)?;
        self.expect(&TokenKind::Semi)?;
        Ok(StateDecl {
            name,
            kind: StateKind::Map {
                key_width,
                value_width,
            },
            size,
        })
    }

    fn parse_width_ty(&mut self) -> Result<u8> {
        let t = self.ident()?;
        match t.as_str() {
            "u8" => Ok(8),
            "u16" => Ok(16),
            "u32" => Ok(32),
            "u64" => Ok(64),
            other => Err(self.error_here(format!(
                "unknown type `{other}` (expected u8/u16/u32/u64)"
            ))),
        }
    }

    fn parse_params(&mut self) -> Result<Vec<(String, u8)>> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let n = self.ident()?;
                self.expect(&TokenKind::Colon)?;
                let w = self.parse_width_ty()?;
                params.push((n, w));
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(&TokenKind::Comma)?;
            }
        }
        Ok(params)
    }

    pub(crate) fn parse_service_decl(&mut self) -> Result<ServiceDecl> {
        self.keyword("service")?;
        let provided = if self.eat_keyword("provide") {
            true
        } else {
            self.keyword("require")?;
            false
        };
        let name = self.ident()?;
        let params = self.parse_params()?;
        self.expect(&TokenKind::Semi)?;
        Ok(ServiceDecl {
            name,
            params,
            provided,
        })
    }

    /// Consumes a string literal token.
    pub(crate) fn string(&mut self) -> Result<String> {
        match self.peek().kind {
            TokenKind::Str(_) => match self.advance().kind {
                TokenKind::Str(s) => Ok(s),
                _ => unreachable!("peeked a string literal"),
            },
            ref other => Err(self.error_here(format!("expected string literal, found {other}"))),
        }
    }

    /// Peeks the text of the next token when it is an identifier.
    pub(crate) fn peek_ident(&self) -> Option<String> {
        match &self.peek().kind {
            TokenKind::Ident(s) => Some(s.clone()),
            _ => None,
        }
    }

    pub(crate) fn parse_table_decl(&mut self) -> Result<TableDecl> {
        self.keyword("table")?;
        let name = self.ident()?;
        let mut decl = self.parse_table_body()?;
        decl.name = name;
        Ok(decl)
    }

    /// Parses a table body `{ key … actions … }` with a placeholder name —
    /// shared with the patch DSL, which parses the name and an optional
    /// position itself.
    pub(crate) fn parse_table_body(&mut self) -> Result<TableDecl> {
        let name = String::new();
        self.expect(&TokenKind::LBrace)?;
        let mut keys = Vec::new();
        let mut actions = Vec::new();
        let mut default_action = None;
        let mut size = 64u64;
        while !self.eat(&TokenKind::RBrace) {
            if self.at_keyword("key") {
                self.keyword("key")?;
                self.expect(&TokenKind::LBrace)?;
                while !self.eat(&TokenKind::RBrace) {
                    let field = self.parse_field_path()?;
                    self.expect(&TokenKind::Colon)?;
                    let mk = match self.ident()?.as_str() {
                        "exact" => MatchKind::Exact,
                        "lpm" => MatchKind::Lpm,
                        "ternary" => MatchKind::Ternary,
                        "range" => MatchKind::Range,
                        other => {
                            return Err(self.error_here(format!(
                                "unknown match kind `{other}`"
                            )))
                        }
                    };
                    self.expect(&TokenKind::Semi)?;
                    keys.push(TableKey {
                        field,
                        match_kind: mk,
                    });
                }
            } else if self.at_keyword("action") {
                self.keyword("action")?;
                let aname = self.ident()?;
                let params = self.parse_params()?;
                let body = self.parse_block()?;
                actions.push(ActionDecl {
                    name: aname,
                    params,
                    body,
                });
            } else if self.at_keyword("default") {
                self.keyword("default")?;
                let aname = self.ident()?;
                self.expect(&TokenKind::LParen)?;
                let mut args = Vec::new();
                if !self.eat(&TokenKind::RParen) {
                    loop {
                        args.push(self.int()?);
                        if self.eat(&TokenKind::RParen) {
                            break;
                        }
                        self.expect(&TokenKind::Comma)?;
                    }
                }
                self.expect(&TokenKind::Semi)?;
                default_action = Some(ActionCall {
                    action: aname,
                    args,
                });
            } else if self.at_keyword("size") {
                self.keyword("size")?;
                size = self.int()?;
                self.expect(&TokenKind::Semi)?;
            } else {
                return Err(self.error_here(format!(
                    "expected key/action/default/size in table, found {}",
                    self.peek().kind
                )));
            }
        }
        Ok(TableDecl {
            name,
            keys,
            actions,
            default_action,
            size,
        })
    }

    pub(crate) fn parse_handler(&mut self) -> Result<Handler> {
        self.keyword("handler")?;
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let _pkt = self.ident()?; // conventionally `pkt`; name is ignored
        self.expect(&TokenKind::RParen)?;
        let body = self.parse_block()?;
        Ok(Handler { name, body })
    }

    pub(crate) fn parse_block(&mut self) -> Result<Block> {
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            stmts.push(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    fn parse_field_path(&mut self) -> Result<FieldPath> {
        let proto = self.ident()?;
        self.expect(&TokenKind::Dot)?;
        let field = self.ident()?;
        Ok(if proto == "meta" {
            FieldPath::Meta(field)
        } else {
            FieldPath::Header(proto, field)
        })
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        // Keyword statements first.
        if self.at_keyword("let") {
            self.keyword("let")?;
            let n = self.ident()?;
            self.expect(&TokenKind::Assign)?;
            let e = self.parse_expr()?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::Let(n, e));
        }
        if self.at_keyword("if") {
            self.keyword("if")?;
            self.expect(&TokenKind::LParen)?;
            let cond = self.parse_expr()?;
            self.expect(&TokenKind::RParen)?;
            let then = self.parse_block()?;
            let els = if self.eat_keyword("else") {
                if self.at_keyword("if") {
                    vec![self.parse_stmt()?]
                } else {
                    self.parse_block()?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If(cond, then, els));
        }
        if self.at_keyword("repeat") {
            self.keyword("repeat")?;
            self.expect(&TokenKind::LParen)?;
            let n = self.int()?;
            self.expect(&TokenKind::RParen)?;
            let body = self.parse_block()?;
            return Ok(Stmt::Repeat(n, body));
        }
        if self.at_keyword("apply") {
            self.keyword("apply")?;
            let t = self.ident()?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::Apply(t));
        }
        if self.at_keyword("drop") {
            self.keyword("drop")?;
            self.expect(&TokenKind::LParen)?;
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::Drop);
        }
        if self.at_keyword("forward") {
            self.keyword("forward")?;
            self.expect(&TokenKind::LParen)?;
            let e = self.parse_expr()?;
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::Forward(e));
        }
        if self.at_keyword("punt") {
            self.keyword("punt")?;
            self.expect(&TokenKind::LParen)?;
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::Punt);
        }
        if self.at_keyword("recirculate") {
            self.keyword("recirculate")?;
            self.expect(&TokenKind::LParen)?;
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::Recirculate);
        }
        if self.at_keyword("count") {
            self.keyword("count")?;
            self.expect(&TokenKind::LParen)?;
            let c = self.ident()?;
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::Count(c));
        }
        if self.at_keyword("map_put") {
            self.keyword("map_put")?;
            self.expect(&TokenKind::LParen)?;
            let m = self.ident()?;
            self.expect(&TokenKind::Comma)?;
            let k = self.parse_expr()?;
            self.expect(&TokenKind::Comma)?;
            let v = self.parse_expr()?;
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::MapPut(m, k, v));
        }
        if self.at_keyword("map_del") {
            self.keyword("map_del")?;
            self.expect(&TokenKind::LParen)?;
            let m = self.ident()?;
            self.expect(&TokenKind::Comma)?;
            let k = self.parse_expr()?;
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::MapDelete(m, k));
        }
        if self.at_keyword("reg_write") {
            self.keyword("reg_write")?;
            self.expect(&TokenKind::LParen)?;
            let r = self.ident()?;
            self.expect(&TokenKind::Comma)?;
            let i = self.parse_expr()?;
            self.expect(&TokenKind::Comma)?;
            let v = self.parse_expr()?;
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::RegWrite(r, i, v));
        }
        if self.at_keyword("invoke") {
            self.keyword("invoke")?;
            let s = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let mut args = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if self.eat(&TokenKind::RParen) {
                        break;
                    }
                    self.expect(&TokenKind::Comma)?;
                }
            }
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::Invoke(s, args));
        }
        if self.at_keyword("add_header") {
            self.keyword("add_header")?;
            self.expect(&TokenKind::LParen)?;
            let p = self.ident()?;
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::AddHeader(p));
        }
        if self.at_keyword("remove_header") {
            self.keyword("remove_header")?;
            self.expect(&TokenKind::LParen)?;
            let p = self.ident()?;
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::RemoveHeader(p));
        }
        if self.at_keyword("return") {
            self.keyword("return")?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::Return);
        }
        // Assignments: `proto.field = e;` or `local = e;`
        if matches!(self.peek().kind, TokenKind::Ident(_)) {
            if self.peek2() == &TokenKind::Dot {
                let path = self.parse_field_path()?;
                self.expect(&TokenKind::Assign)?;
                let e = self.parse_expr()?;
                self.expect(&TokenKind::Semi)?;
                return Ok(Stmt::AssignField(path, e));
            }
            if self.peek2() == &TokenKind::Assign {
                let n = self.ident()?;
                self.expect(&TokenKind::Assign)?;
                let e = self.parse_expr()?;
                self.expect(&TokenKind::Semi)?;
                return Ok(Stmt::AssignLocal(n, e));
            }
        }
        Err(self.error_here(format!(
            "expected a statement, found {}",
            self.peek().kind
        )))
    }

    // -- expressions ----------------------------------------------------------

    pub(crate) fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_bin(0)
    }

    /// Operator precedence, lowest first.
    fn bin_op_at(&self, min_prec: u8) -> Option<(BinOp, u8)> {
        let (op, prec) = match self.peek().kind {
            TokenKind::OrOr => (BinOp::LOr, 1),
            TokenKind::AndAnd => (BinOp::LAnd, 2),
            TokenKind::Pipe => (BinOp::Or, 3),
            TokenKind::Caret => (BinOp::Xor, 4),
            TokenKind::Amp => (BinOp::And, 5),
            TokenKind::Eq => (BinOp::Eq, 6),
            TokenKind::Ne => (BinOp::Ne, 6),
            TokenKind::Lt => (BinOp::Lt, 7),
            TokenKind::Le => (BinOp::Le, 7),
            TokenKind::Gt => (BinOp::Gt, 7),
            TokenKind::Ge => (BinOp::Ge, 7),
            TokenKind::Shl => (BinOp::Shl, 8),
            TokenKind::Shr => (BinOp::Shr, 8),
            TokenKind::Plus => (BinOp::Add, 9),
            TokenKind::Minus => (BinOp::Sub, 9),
            TokenKind::Star => (BinOp::Mul, 10),
            TokenKind::Slash => (BinOp::Div, 10),
            TokenKind::Percent => (BinOp::Mod, 10),
            _ => return None,
        };
        (prec >= min_prec).then_some((op, prec))
    }

    fn parse_bin(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = self.bin_op_at(min_prec) {
            self.advance();
            let rhs = self.parse_bin(prec + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        match self.peek().kind {
            TokenKind::Bang => {
                self.advance();
                Ok(Expr::Un(UnOp::Not, Box::new(self.parse_unary()?)))
            }
            TokenKind::Tilde => {
                self.advance();
                Ok(Expr::Un(UnOp::BitNot, Box::new(self.parse_unary()?)))
            }
            TokenKind::Minus => {
                self.advance();
                Ok(Expr::Un(UnOp::Neg, Box::new(self.parse_unary()?)))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(Expr::Int(v))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                // Builtin call forms.
                match name.as_str() {
                    "valid" => {
                        self.advance();
                        self.expect(&TokenKind::LParen)?;
                        let p = self.ident()?;
                        self.expect(&TokenKind::RParen)?;
                        return Ok(Expr::Valid(p));
                    }
                    "map_get" | "map_has" | "reg_read" | "meter_check" => {
                        self.advance();
                        self.expect(&TokenKind::LParen)?;
                        let obj = self.ident()?;
                        self.expect(&TokenKind::Comma)?;
                        let arg = self.parse_expr()?;
                        self.expect(&TokenKind::RParen)?;
                        return Ok(match name.as_str() {
                            "map_get" => Expr::MapGet(obj, Box::new(arg)),
                            "map_has" => Expr::MapHas(obj, Box::new(arg)),
                            "reg_read" => Expr::RegRead(obj, Box::new(arg)),
                            _ => Expr::MeterCheck(obj, Box::new(arg)),
                        });
                    }
                    "counter_read" => {
                        self.advance();
                        self.expect(&TokenKind::LParen)?;
                        let c = self.ident()?;
                        self.expect(&TokenKind::RParen)?;
                        return Ok(Expr::CounterRead(c));
                    }
                    "hash" => {
                        self.advance();
                        self.expect(&TokenKind::LParen)?;
                        let mut args = Vec::new();
                        if !self.eat(&TokenKind::RParen) {
                            loop {
                                args.push(self.parse_expr()?);
                                if self.eat(&TokenKind::RParen) {
                                    break;
                                }
                                self.expect(&TokenKind::Comma)?;
                            }
                        }
                        return Ok(Expr::Hash(args));
                    }
                    "pktlen" => {
                        self.advance();
                        self.expect(&TokenKind::LParen)?;
                        self.expect(&TokenKind::RParen)?;
                        return Ok(Expr::PktLen);
                    }
                    _ => {}
                }
                // Field path or bare local.
                if self.peek2() == &TokenKind::Dot {
                    let path = self.parse_field_path()?;
                    Ok(Expr::Field(path))
                } else {
                    self.advance();
                    Ok(Expr::Local(name))
                }
            }
            ref other => Err(self.error_here(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIREWALL: &str = r#"
        header vxlan {
          fields { flags: 8; vni: 24; }
          follows udp when udp.dport == 4789;
        }

        program firewall kind switch {
          map blocked : map<u32, u8>[1024];
          counter dropped;
          register last_seen : u64[4096];
          meter limiter rate 10000 burst 100;
          service require migrate_state(dst: u32);

          table acl {
            key { ipv4.src : exact; ipv4.dst : lpm; }
            action drop_pkt() { count(dropped); drop(); }
            action set_port(port: u16) { forward(port); }
            default set_port(1);
            size 256;
          }

          handler ingress(pkt) {
            if (valid(ipv4)) {
              if (map_get(blocked, ipv4.src) == 1) {
                count(dropped);
                drop();
              }
              apply acl;
            }
            forward(1);
          }
        }
    "#;

    #[test]
    fn parses_full_firewall() {
        let file = parse_source(FIREWALL).unwrap();
        assert_eq!(file.headers.len(), 1);
        assert_eq!(file.programs.len(), 1);
        let p = &file.programs[0];
        assert_eq!(p.name, "firewall");
        assert_eq!(p.kind, ProgramKind::Switch);
        assert_eq!(p.states.len(), 4);
        assert_eq!(p.tables.len(), 1);
        assert_eq!(p.services.len(), 1);
        let t = p.table("acl").unwrap();
        assert_eq!(t.keys.len(), 2);
        assert_eq!(t.keys[1].match_kind, MatchKind::Lpm);
        assert_eq!(t.size, 256);
        assert_eq!(t.actions.len(), 2);
        assert_eq!(
            t.default_action,
            Some(ActionCall {
                action: "set_port".into(),
                args: vec![1]
            })
        );
    }

    #[test]
    fn header_decl_follows_clause() {
        let file = parse_source(FIREWALL).unwrap();
        let h = &file.headers[0];
        assert_eq!(h.name, "vxlan");
        assert_eq!(h.fields.len(), 2);
        assert_eq!(
            h.follows,
            Some(FollowsClause {
                prev_proto: "udp".into(),
                select_field: "dport".into(),
                value: 4789
            })
        );
    }

    #[test]
    fn round_trips_through_pretty_printer() {
        let file = parse_source(FIREWALL).unwrap();
        let printed = file.to_source();
        let reparsed = parse_source(&printed).unwrap();
        assert_eq!(file, reparsed);
    }

    #[test]
    fn expression_precedence() {
        let p = parse_program(
            "program t { handler h(pkt) { let x = 1 + 2 * 3 == 7 && valid(ipv4); } }",
        )
        .unwrap();
        let Stmt::Let(_, e) = &p.handlers[0].body[0] else {
            panic!("expected let");
        };
        // (&& ((1 + (2*3)) == 7) valid(ipv4))
        let Expr::Bin(BinOp::LAnd, l, r) = e else {
            panic!("expected && at top: {e:?}");
        };
        assert!(matches!(**r, Expr::Valid(_)));
        let Expr::Bin(BinOp::Eq, ll, _) = &**l else {
            panic!("expected == under &&");
        };
        let Expr::Bin(BinOp::Add, _, mul) = &**ll else {
            panic!("expected + under ==");
        };
        assert!(matches!(**mul, Expr::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn else_if_chains() {
        let p = parse_program(
            "program t { handler h(pkt) {
                if (1 == 1) { drop(); } else if (2 == 2) { punt(); } else { forward(1); }
             } }",
        )
        .unwrap();
        let Stmt::If(_, _, els) = &p.handlers[0].body[0] else {
            panic!()
        };
        assert_eq!(els.len(), 1);
        assert!(matches!(&els[0], Stmt::If(_, _, e2) if e2.len() == 1));
    }

    #[test]
    fn meta_fields_parse_as_meta() {
        let p = parse_program(
            "program t { handler h(pkt) { meta.mark = 1; let x = meta.mark; } }",
        )
        .unwrap();
        assert!(matches!(
            &p.handlers[0].body[0],
            Stmt::AssignField(FieldPath::Meta(f), _) if f == "mark"
        ));
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = parse_source("program p {\n  bogus item;\n}").unwrap_err();
        match err {
            FlexError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_multi_program_in_parse_program() {
        assert!(parse_program("program a {} program b {}").is_err());
        assert!(parse_program("").is_err());
    }

    #[test]
    fn rejects_bad_header_widths_and_kinds() {
        assert!(parse_source("header h { fields { x: 0; } }").is_err());
        assert!(parse_source("header h { fields { x: 65; } }").is_err());
        assert!(parse_source("program p kind quantum {}").is_err());
    }

    #[test]
    fn rejects_follows_on_wrong_proto() {
        let src = "header h { fields { x: 8; } follows udp when tcp.dport == 1; }";
        assert!(parse_source(src).is_err());
    }

    #[test]
    fn repeat_and_registers() {
        let p = parse_program(
            "program t { register r : u32[8]; handler h(pkt) {
               repeat (4) { reg_write(r, 0, reg_read(r, 0) + 1); }
             } }",
        )
        .unwrap();
        let Stmt::Repeat(4, body) = &p.handlers[0].body[0] else {
            panic!()
        };
        assert!(matches!(&body[0], Stmt::RegWrite(..)));
    }

    #[test]
    fn invoke_and_header_ops() {
        let p = parse_program(
            "program t { service require mig(dst: u32); handler h(pkt) {
               invoke mig(3);
               add_header(vlan);
               remove_header(vlan);
               return;
             } }",
        )
        .unwrap();
        assert_eq!(p.handlers[0].body.len(), 4);
        assert!(matches!(&p.handlers[0].body[0], Stmt::Invoke(s, a) if s == "mig" && a.len() == 1));
    }

    #[test]
    fn unary_operators_nest() {
        let p = parse_program("program t { handler h(pkt) { let x = !~-1; } }").unwrap();
        let Stmt::Let(_, e) = &p.handlers[0].body[0] else {
            panic!()
        };
        assert!(matches!(e, Expr::Un(UnOp::Not, _)));
    }
}
