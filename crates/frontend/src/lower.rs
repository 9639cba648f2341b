//! Lowering: AST → `cfp_ir::Kernel`.
//!
//! This stage performs, in one walk, the source-level transformations the
//! paper applies to every benchmark before scheduling ("proper source
//! code transformations have been applied … to expose ILP — loop
//! transformations, if-conversion, etc.", §2.3):
//!
//! * **full unrolling** of constant-bound `for` loops (each copy binds
//!   the loop variable to a constant, so indices fold);
//! * **if-conversion**: both branches of an `if` are lowered
//!   speculatively and every scalar they disagree on is merged with a
//!   select; stores under an `if` are rejected (the machine has no
//!   predicated stores);
//! * **loop-invariant hoisting**: everything outside the single `loop`
//!   statement lowers into the kernel preamble and stays in registers for
//!   the whole loop;
//! * **carried-scalar discovery**: scalars declared before the `loop`
//!   and assigned inside it become explicit loop-carried values;
//! * **affine index tracking**: index expressions, their constant parts
//!   included, are evaluated exactly as `c0 + c1·i`, producing affine
//!   [`MemRef`]s for the scheduler's dependence test (a 64-bit overflow,
//!   or a `c0` or `c1` outside `i32`, is an error); a non-affine index
//!   falls back to a dynamic register index (with conservative
//!   dependences).
//!
//! Scalars in scope live in one ordered stack (outermost scope first,
//! declaration order within a scope); a scope is a suffix of it. The
//! order is part of the IR: if-conversion emits its merge selects, and
//! numbers their registers, in stack order, so a kernel lowers to the
//! same IR in every process. Nothing here iterates a hashed map.

use crate::ast::{Dir, Expr, KernelAst, Param, Stmt};
use crate::diag::CompileError;
use crate::token::Span;
use crate::vocab::{builtin, truthy, Ir, Meaning};
use cfp_ir::{
    ArrayDecl, ArrayId, ArrayKind, Carried, CarriedInit, Inst, Kernel, MemRef, Operand, Vreg,
};

/// Lower a parsed kernel, binding each `const` parameter to a value.
///
/// # Errors
/// Returns a [`CompileError`] for semantic violations: undefined or
/// doubly-defined names, missing/extra const bindings, non-constant
/// bounds, stores under `if`, non-affine use of the loop variable,
/// multiple or non-top-level `loop` statements, and the like.
pub fn lower(ast: &KernelAst, consts: &[(&str, i64)]) -> Result<Kernel, CompileError> {
    let mut lw = Lowerer::new(ast.name.clone());
    lw.declare_params(ast, consts)?;
    let mut saw_loop = false;
    for stmt in &ast.body {
        if saw_loop {
            return Err(CompileError::new(
                "statements after the `loop` are not supported",
                stmt_span(stmt),
            ));
        }
        saw_loop = matches!(stmt, Stmt::Loop { .. });
        lw.stmt(stmt)?;
    }
    let kernel = lw.finish();
    debug_assert_eq!(
        cfp_ir::verify(&kernel),
        Ok(()),
        "lowering broke IR invariants"
    );
    Ok(kernel)
}

fn stmt_span(s: &Stmt) -> Span {
    match s {
        Stmt::Var { span, .. }
        | Stmt::LocalArray { span, .. }
        | Stmt::Assign { span, .. }
        | Stmt::Store { span, .. }
        | Stmt::For { span, .. }
        | Stmt::Loop { span, .. }
        | Stmt::If { span, .. } => *span,
    }
}

/// A symbolic value during lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sym {
    /// Compile-time constant.
    Const(i64),
    /// `c0 + c1·i` where `i` is the loop variable (`c1 != 0`).
    Affine { c0: i64, c1: i64 },
    /// A runtime value in a register.
    Reg(Vreg),
}

impl From<Operand> for Sym {
    fn from(o: Operand) -> Sym {
        match o {
            Operand::Imm(v) => Sym::Const(i64::from(v)),
            Operand::Reg(v) => Sym::Reg(v),
        }
    }
}

impl Sym {
    /// `(c0, c1)` of `c0 + c1·i`, for a constant or an affine value.
    fn form(self) -> Option<(i64, i64)> {
        match self {
            Sym::Const(v) => Some((v, 0)),
            Sym::Affine { c0, c1 } => Some((c0, c1)),
            Sym::Reg(_) => None,
        }
    }

    /// A constant's register value.
    fn imm(self) -> Option<i32> {
        match self {
            Sym::Const(v) => Operand::from(v).imm(),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Binding {
    sym: Sym,
    mutable: bool,
}

struct Lowerer<'a> {
    kernel: Kernel,
    next_vreg: u32,
    /// Every scalar in scope, outermost scope first and each scope in
    /// declaration order; a scope is the suffix from the length the
    /// stack had when it opened. Shadowing is refused, so a name occurs
    /// at most once. The order is part of the IR: if-conversion emits
    /// its merge selects in it.
    bindings: Vec<(&'a str, Binding)>,
    /// Scopes open inside the top level (`for` bodies, `if` arms, the
    /// `loop` body).
    depth: u32,
    loop_var: Option<&'a str>,
    in_loop: bool,
    /// Whether an array index is being evaluated: its constant parts
    /// fold with the index's exact arithmetic, not at register width.
    in_index: bool,
    if_depth: u32,
    seen_loop: bool,
}

impl Ir for Lowerer<'_> {
    fn def(&mut self, make: impl FnOnce(Vreg) -> Inst) -> Operand {
        let dst = self.fresh();
        self.emit(make(dst));
        Operand::Reg(dst)
    }
}

impl<'a> Lowerer<'a> {
    fn new(name: String) -> Self {
        Lowerer {
            kernel: Kernel::new(name),
            next_vreg: 0,
            bindings: Vec::new(),
            depth: 0,
            loop_var: None,
            in_loop: false,
            in_index: false,
            if_depth: 0,
            seen_loop: false,
        }
    }

    fn fresh(&mut self) -> Vreg {
        let v = Vreg(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    fn emit(&mut self, inst: Inst) {
        if self.in_loop {
            self.kernel.body.push(inst);
        } else {
            self.kernel.preamble.push(inst);
        }
    }

    fn finish(self) -> Kernel {
        self.kernel
    }

    // ---- name management -------------------------------------------------

    fn array(&self, name: &str) -> Option<ArrayId> {
        let i = self.kernel.arrays.iter().position(|a| a.name == name)?;
        Some(ArrayId(u32::try_from(i).expect("few arrays")))
    }

    fn name_in_use(&self, name: &str) -> bool {
        self.array(name).is_some() || self.binding(name).is_some() || self.loop_var == Some(name)
    }

    /// Open a scope: the mark [`Lowerer::close`] truncates back to.
    fn open(&mut self) -> usize {
        self.depth += 1;
        self.bindings.len()
    }

    fn close(&mut self, mark: usize) {
        self.bindings.truncate(mark);
        self.depth -= 1;
    }

    fn declare(&mut self, name: &'a str, b: Binding, span: Span) -> Result<(), CompileError> {
        if self.name_in_use(name) {
            return Err(CompileError::new(
                format!("name `{name}` is already defined (shadowing is not allowed)"),
                span,
            ));
        }
        self.bindings.push((name, b));
        Ok(())
    }

    /// The stack index of `name`'s binding.
    fn binding(&self, name: &str) -> Option<usize> {
        self.bindings.iter().rposition(|&(n, _)| n == name)
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        self.binding(name).map(|i| self.bindings[i].1)
    }

    fn set(&mut self, name: &str, sym: Sym, span: Span) -> Result<(), CompileError> {
        let Some(i) = self.binding(name) else {
            return Err(CompileError::new(
                format!("assignment to undefined variable `{name}`"),
                span,
            ));
        };
        let b = &mut self.bindings[i].1;
        if !b.mutable {
            return Err(CompileError::new(
                format!("`{name}` is not assignable"),
                span,
            ));
        }
        b.sym = sym;
        Ok(())
    }

    // ---- declarations ----------------------------------------------------

    fn declare_params(
        &mut self,
        ast: &'a KernelAst,
        consts: &[(&str, i64)],
    ) -> Result<(), CompileError> {
        if (1..consts.len()).any(|i| consts[..i].iter().any(|&(n, _)| n == consts[i].0)) {
            return Err(CompileError::new(
                "duplicate const binding supplied",
                ast.span,
            ));
        }
        // Which of the caller's bindings a parameter has taken.
        let mut taken = vec![false; consts.len()];
        for p in &ast.params {
            match p {
                Param::Array {
                    name,
                    dir,
                    space,
                    ty,
                    span,
                } => {
                    if self.name_in_use(name) {
                        return Err(CompileError::new(
                            format!("parameter `{name}` duplicates another name"),
                            *span,
                        ));
                    }
                    self.kernel.arrays.push(ArrayDecl {
                        name: name.clone(),
                        ty: *ty,
                        space: *space,
                        kind: match dir {
                            Dir::In => ArrayKind::In,
                            Dir::Out => ArrayKind::Out,
                            Dir::InOut => ArrayKind::InOut,
                        },
                    });
                }
                Param::Const { name, span } => {
                    let Some(i) = consts
                        .iter()
                        .position(|&(n, _)| n == name)
                        .filter(|&i| !taken[i])
                    else {
                        return Err(CompileError::new(
                            format!("no value supplied for const parameter `{name}`"),
                            *span,
                        ));
                    };
                    taken[i] = true;
                    let v = consts[i].1;
                    self.declare(
                        name,
                        Binding {
                            sym: Sym::Const(v),
                            mutable: false,
                        },
                        *span,
                    )?;
                }
            }
        }
        if let Some(&(name, _)) = consts.iter().zip(&taken).find(|(_, &t)| !t).map(|(c, _)| c) {
            return Err(CompileError::new(
                format!("const binding `{name}` does not match any parameter"),
                ast.span,
            ));
        }
        Ok(())
    }

    // ---- expression lowering ----------------------------------------------

    fn materialize(&mut self, sym: Sym, span: Span) -> Result<Operand, CompileError> {
        match sym {
            Sym::Const(v) => Ok(Operand::from(v)),
            Sym::Reg(v) => Ok(Operand::Reg(v)),
            Sym::Affine { .. } => Err(CompileError::new(
                "the loop variable may only be used in affine array-index arithmetic",
                span,
            )),
        }
    }

    fn eval(&mut self, e: &Expr) -> Result<Sym, CompileError> {
        match e {
            Expr::Int(v, _) => Ok(Sym::Const(*v)),
            Expr::Var(name, span) => {
                if self.loop_var == Some(name.as_str()) {
                    return Ok(Sym::Affine { c0: 0, c1: 1 });
                }
                self.lookup(name)
                    .map(|b| b.sym)
                    .ok_or_else(|| CompileError::new(format!("undefined name `{name}`"), *span))
            }
            Expr::Index { array, index, span } => {
                let id = self.array(array).ok_or_else(|| {
                    CompileError::new(format!("undefined array `{array}`"), *span)
                })?;
                if !self.kernel.arrays[id.index()].kind.readable() {
                    return Err(CompileError::new(
                        format!("array `{array}` is write-only (`out`)"),
                        *span,
                    ));
                }
                let mem = self.mem_ref(id, index)?;
                let ty = self.kernel.arrays[id.index()].ty;
                Ok(self.def(|dst| Inst::Ld { dst, mem, ty }).into())
            }
            Expr::Unary { op, expr, span } => {
                let a = self.eval(expr)?;
                self.apply(op.meaning, a, Sym::Const(0), *span)
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                self.apply(op.meaning, a, b, *span)
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                let c = self.eval(cond)?;
                let t = self.eval(then_expr)?;
                let f = self.eval(else_expr)?;
                if let Some(cv) = c.imm() {
                    return Ok(if truthy(cv) { t } else { f });
                }
                let cond = self.materialize(c, cond.span())?;
                let on_true = self.materialize(t, then_expr.span())?;
                let on_false = self.materialize(f, else_expr.span())?;
                let sel = self.def(|dst| Inst::Sel {
                    dst,
                    cond,
                    on_true,
                    on_false,
                });
                Ok(sel.into())
            }
            Expr::Call { func, args, span } => self.call(func, args, *span),
        }
    }

    /// `m` over `a` and `b`: affine index arithmetic when either is the
    /// loop variable's or both are an index's constants, otherwise `m`'s
    /// IR, folded where its operands are constants.
    fn apply(&mut self, m: Meaning, a: Sym, b: Sym, span: Span) -> Result<Sym, CompileError> {
        if let (Some(fa), Some(fb)) = (a.form(), b.form()) {
            if self.in_index || fa.1 != 0 || fb.1 != 0 {
                match m.affine(fa, fb) {
                    Ok(Some((c0, 0))) => return Ok(Sym::Const(c0)),
                    Ok(Some((c0, c1))) => return Ok(Sym::Affine { c0, c1 }),
                    Ok(None) => {}
                    Err(message) => return Err(CompileError::new(message, span)),
                }
            }
        }
        let a = self.materialize(a, span)?;
        let b = self.materialize(b, span)?;
        Ok(m.lower(a, b, self).into())
    }

    fn call(&mut self, func: &str, args: &[Expr], span: Span) -> Result<Sym, CompileError> {
        let syms: Vec<Sym> = args
            .iter()
            .map(|a| self.eval(a))
            .collect::<Result<_, _>>()?;
        let Some(row) = builtin(func) else {
            return Err(CompileError::new(format!("unknown builtin `{func}`"), span));
        };
        let n = row.meaning.arity();
        if syms.len() != n {
            return Err(CompileError::new(
                format!("`{func}` expects {n} argument(s), got {}", syms.len()),
                span,
            ));
        }
        let b = syms.get(1).copied().unwrap_or(Sym::Const(0));
        self.apply(row.meaning, syms[0], b, span)
    }

    /// The value of `e`, which, being `what`, must be a compile-time
    /// constant.
    fn constant(&mut self, e: &Expr, what: &str) -> Result<i64, CompileError> {
        match self.eval(e)? {
            Sym::Const(v) => Ok(v),
            _ => Err(CompileError::new(
                format!("{what} must be a compile-time constant"),
                e.span(),
            )),
        }
    }

    /// The access `array[index]`. An affine index must fit in 32 bits:
    /// no 32-bit address stream forms a wider one, and the bound keeps
    /// an unroller's scaled coefficient inside `i64`.
    fn mem_ref(&mut self, array: ArrayId, index: &Expr) -> Result<MemRef, CompileError> {
        let outer = std::mem::replace(&mut self.in_index, true);
        let sym = self.eval(index);
        self.in_index = outer;
        let sym = sym?;
        let Some((c0, c1)) = sym.form() else {
            let dyn_index = Some(self.materialize(sym, index.span())?);
            return Ok(MemRef {
                array,
                coeff: 0,
                offset: 0,
                dyn_index,
            });
        };
        if i32::try_from(c0).is_err() || i32::try_from(c1).is_err() {
            return Err(CompileError::new(
                format!("array index {c1}*i{c0:+} is outside the 32-bit range"),
                index.span(),
            ));
        }
        Ok(MemRef::affine(array, c1, c0))
    }

    // ---- statements --------------------------------------------------------

    fn stmt(&mut self, s: &'a Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Var { name, init, span } => {
                let sym = match init {
                    Some(e) => self.eval(e)?,
                    None => Sym::Const(0),
                };
                self.declare(name, Binding { sym, mutable: true }, *span)
            }
            Stmt::LocalArray {
                name,
                space,
                ty,
                len,
                span,
            } => {
                if self.in_loop || self.if_depth > 0 {
                    return Err(CompileError::new(
                        "local arrays must be declared at the top level, before the `loop`",
                        *span,
                    ));
                }
                if self.name_in_use(name) {
                    return Err(CompileError::new(
                        format!("name `{name}` is already defined"),
                        *span,
                    ));
                }
                let n = self.constant(len, "a local array length")?;
                let n = u32::try_from(n).map_err(|_| {
                    CompileError::new("local array length must be non-negative", *span)
                })?;
                self.kernel.arrays.push(ArrayDecl {
                    name: name.clone(),
                    ty: *ty,
                    space: *space,
                    kind: ArrayKind::Local(n),
                });
                Ok(())
            }
            Stmt::Assign { name, value, span } => {
                let sym = self.eval(value)?;
                self.set(name, sym, *span)
            }
            Stmt::Store {
                array,
                index,
                value,
                span,
            } => {
                if self.if_depth > 0 {
                    return Err(CompileError::new(
                        "stores are not allowed under `if` (no predicated stores); \
                         compute the value with `?:` and store unconditionally",
                        *span,
                    ));
                }
                let id = self.array(array).ok_or_else(|| {
                    CompileError::new(format!("undefined array `{array}`"), *span)
                })?;
                if !self.kernel.arrays[id.index()].kind.writable() {
                    return Err(CompileError::new(
                        format!("array `{array}` is read-only (`in`)"),
                        *span,
                    ));
                }
                if !self.in_loop {
                    return Err(CompileError::new(
                        "stores are only allowed inside the `loop`",
                        *span,
                    ));
                }
                let mem = self.mem_ref(id, index)?;
                let v = self.eval(value)?;
                let vo = self.materialize(v, value.span())?;
                let ty = self.kernel.arrays[id.index()].ty;
                self.emit(Inst::St { mem, value: vo, ty });
                Ok(())
            }
            Stmt::For {
                var,
                start,
                end,
                body,
                span,
            } => {
                let lo = self.constant(start, "a `for` bound")?;
                let hi = self.constant(end, "a `for` bound")?;
                let trips = hi.checked_sub(lo).ok_or_else(|| {
                    CompileError::new("`for` trip count overflows", start.span().to(end.span()))
                })?;
                if trips > 4096 {
                    return Err(CompileError::new(
                        format!("`for` trip count {trips} is unreasonably large"),
                        *span,
                    ));
                }
                for k in lo..hi {
                    let mark = self.open();
                    self.declare(
                        var,
                        Binding {
                            sym: Sym::Const(k),
                            mutable: false,
                        },
                        *span,
                    )?;
                    for st in body {
                        self.stmt(st)?;
                    }
                    self.close(mark);
                }
                Ok(())
            }
            Stmt::Loop {
                var,
                produces,
                body,
                span,
            } => self.lower_loop(var, produces.as_ref(), body, *span),
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => self.lower_if(cond, then_body, else_body),
        }
    }

    fn lower_loop(
        &mut self,
        var: &'a str,
        produces: Option<&Expr>,
        body: &'a [Stmt],
        span: Span,
    ) -> Result<(), CompileError> {
        if self.seen_loop {
            return Err(CompileError::new("only one `loop` is allowed", span));
        }
        if self.if_depth > 0 || self.depth != 0 {
            return Err(CompileError::new(
                "`loop` must appear at the top level of the kernel",
                span,
            ));
        }
        if self.name_in_use(var) {
            return Err(CompileError::new(
                format!("loop variable `{var}` duplicates another name"),
                span,
            ));
        }
        self.seen_loop = true;
        let outputs = match produces {
            Some(e) => {
                let v = self.constant(e, "`produces`")?;
                u32::try_from(v).ok().filter(|&v| v >= 1).ok_or_else(|| {
                    CompileError::new("`produces` must be a positive constant", span)
                })?
            }
            None => 1,
        };
        self.kernel.outputs_per_iter = outputs;

        // Carried scalars: outer vars assigned anywhere inside the loop.
        let mut assigned = Vec::new();
        collect_assigned(body, &mut assigned);
        let mut carried: Vec<(&str, Vreg, CarriedInit)> = Vec::new();
        for name in assigned {
            let Some(b) = self.lookup(name) else {
                continue; // declared inside the loop; a plain temp
            };
            if carried.iter().any(|(n, _, _)| *n == name) {
                continue;
            }
            let init = match self.materialize(b.sym, span)? {
                Operand::Imm(k) => CarriedInit::Const(k),
                Operand::Reg(v) => CarriedInit::Preamble(v),
            };
            let input = self.fresh();
            self.set(name, Sym::Reg(input), span)?;
            carried.push((name, input, init));
        }

        self.in_loop = true;
        self.loop_var = Some(var);
        let mark = self.open();
        for st in body {
            self.stmt(st)?;
        }
        self.close(mark);
        self.loop_var = None;

        for (name, input, init) in carried {
            let final_sym = self.lookup(name).expect("carried var still in scope").sym;
            let output = match final_sym {
                Sym::Reg(v) => v,
                Sym::Const(c) => {
                    let v = self.fresh();
                    self.emit(Inst::mov(v, c));
                    v
                }
                Sym::Affine { .. } => {
                    return Err(CompileError::new(
                        format!("carried variable `{name}` ends as a non-affine loop-var value"),
                        span,
                    ))
                }
            };
            // A carried output must be defined in the body (or equal the
            // input). A preamble-defined register can sneak through when
            // the loop assigns the variable back to a preamble value; copy
            // it into a body register in that case.
            let output =
                if output == input || self.kernel.body.iter().any(|i| i.def() == Some(output)) {
                    output
                } else {
                    let v = self.fresh();
                    self.emit(Inst::mov(v, output));
                    v
                };
            self.kernel.carried.push(Carried {
                input,
                output,
                init,
            });
        }
        self.in_loop = false;
        Ok(())
    }

    fn lower_if(
        &mut self,
        cond: &Expr,
        then_body: &'a [Stmt],
        else_body: &'a [Stmt],
    ) -> Result<(), CompileError> {
        let c = self.eval(cond)?;
        if let Some(cv) = c.imm() {
            // Statically decided: lower only the taken branch.
            let taken = if truthy(cv) { then_body } else { else_body };
            let mark = self.open();
            for st in taken {
                self.stmt(st)?;
            }
            self.close(mark);
            return Ok(());
        }
        let co = self.materialize(c, cond.span())?;

        // Both arms start from the outer bindings' values; each arm's own
        // declarations go when it closes.
        let syms = |lw: &Self| -> Vec<Sym> { lw.bindings.iter().map(|(_, b)| b.sym).collect() };
        let before = syms(self);
        self.if_depth += 1;
        let mark = self.open();
        for st in then_body {
            self.stmt(st)?;
        }
        self.close(mark);
        let then_syms = syms(self);
        for ((_, b), &sym) in self.bindings.iter_mut().zip(&before) {
            b.sym = sym;
        }
        let mark = self.open();
        for st in else_body {
            self.stmt(st)?;
        }
        self.close(mark);
        self.if_depth -= 1;

        // Merge every outer binding the arms disagree on, in declaration
        // order (the merge selects' order and register numbers follow it).
        for (i, &t) in then_syms.iter().enumerate() {
            let e = self.bindings[i].1.sym;
            if t == e {
                continue;
            }
            let on_true = self.materialize(t, cond.span())?;
            let on_false = self.materialize(e, cond.span())?;
            let sel = self.def(|dst| Inst::Sel {
                dst,
                cond: co,
                on_true,
                on_false,
            });
            self.bindings[i].1.sym = sel.into();
        }
        Ok(())
    }
}

fn collect_assigned<'a>(body: &'a [Stmt], out: &mut Vec<&'a str>) {
    for s in body {
        match s {
            Stmt::Assign { name, .. } => out.push(name),
            Stmt::For { body, .. } | Stmt::Loop { body, .. } => collect_assigned(body, out),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_assigned(then_body, out);
                collect_assigned(else_body, out);
            }
            Stmt::Var { .. } | Stmt::LocalArray { .. } | Stmt::Store { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::compile_kernel;
    use cfp_ir::{ArrayId, Inst, MemRef, Operand};

    /// An index names one element however its constants are grouped:
    /// they fold with the index's own exact arithmetic, and an index
    /// outside `i32` is refused, at the index, whichever side of the loop
    /// variable its constants sit on.
    #[test]
    fn index_constants_fold_in_one_width() {
        let src = |index: &str| {
            format!("kernel k(in i32 s[], out i32 d[]) {{ loop i {{ d[i] = s[{index}]; }} }}")
        };
        let load = |index: &str| compile_kernel(&src(index), &[]).map(|k| k.body[0].mem().copied());
        let five = Some(MemRef::affine(ArrayId(0), 1, 5));
        assert_eq!(load("2 + 3 + i"), Ok(five));
        assert_eq!(load("i + 2 + 3"), Ok(five));

        let index = "0x7fffffff + 1 + i";
        let wide = load(index).unwrap_err();
        assert_eq!(load("i + 0x7fffffff + 1"), Err(wide.clone()));
        assert_eq!(
            wide.message(),
            "array index 1*i+2147483648 is outside the 32-bit range"
        );
        assert_eq!(&src(index)[wide.span().start..wide.span().end], index);
    }

    /// A non-constant `if` assigning four outer scalars, in an order that
    /// is neither their declaration order nor its reverse: the merge
    /// selects come out in declaration order (`a b c e`), whatever the
    /// process.
    #[test]
    fn merge_selects_follow_declaration_order() {
        let k = compile_kernel(
            "kernel k(in i32 s[], out i32 d[]) {
                loop i {
                    var a = s[i];
                    var b = s[i + 1];
                    var c = s[i + 2];
                    var e = s[i + 3];
                    if a > b { e = 4; b = 2; a = 1; c = 3; }
                    d[i] = a + b + c + e;
                }
            }",
            &[],
        )
        .unwrap();
        let merged: Vec<i32> = k
            .body
            .iter()
            .filter_map(|inst| match inst {
                Inst::Sel {
                    on_true: Operand::Imm(v),
                    ..
                } => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(merged, [1, 2, 3, 4]);
    }

    /// Of two const bindings no parameter takes, the error names the one
    /// the caller passed first.
    #[test]
    fn the_first_unmatched_const_binding_is_reported() {
        let src = "kernel k(out i32 d[], const n) { loop i { d[i] = n; } }";
        for (consts, first) in [
            ([("n", 1), ("zz", 2), ("aa", 3)], "zz"),
            ([("aa", 3), ("n", 1), ("zz", 2)], "aa"),
        ] {
            let err = compile_kernel(src, &consts).unwrap_err();
            assert_eq!(
                err.message(),
                format!("const binding `{first}` does not match any parameter")
            );
        }
    }
}
