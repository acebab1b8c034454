//! Lowering statement bodies to register bytecode.
//!
//! The interpreter re-walks each statement's [`Expr`] tree at every
//! iteration: per-node dispatch through `Box` pointers, plus a full
//! `(i + di - lo_i) * cols + (j + dj - lo_j)` index derivation per array
//! access. Lowering does all of that once, at compile time:
//!
//! * constant subtrees fold to a single [`Instr::Const`];
//! * every array reference resolves to a single **linear delta** — plane
//!   base plus subscript offset — added to the statement's iteration
//!   *cursor* (see [`crate::memory::Layout::cursor`]), which itself
//!   advances by `+1` as the inner loop walks a row;
//! * the tree flattens into a postfix instruction sequence over a small
//!   register file of *stack slots*, with no pointer chasing.
//!
//! The same bytecode runs two ways. [`eval_compiled`] evaluates it at one
//! cursor over a fixed-size stack register file ([`MAX_REGS`] slots): the
//! cell-major paths (uncertified rows, tile waves, hyperplane groups)
//! need exactly that per-cell order. [`eval_strip`] evaluates it over a
//! *strip* of consecutive cursors at once: every instruction dispatches
//! once per strip and runs as a tight loop over one lane per slot. That
//! only reorders distinct iterations of one fused row — each iteration
//! still loads before it stores — which is what the row-DOALL guarantee
//! (Property 4.2, proved at source level by the race certificate and at
//! machine level by the verifier's `MDF204`) makes safe. Expression
//! nesting deeper than the register file is rejected at compile time
//! with a typed error rather than miscompiled.

use mdf_graph::{IVec2, MdfError};
use mdf_ir::ast::{BinOp, Expr, Stmt};
use mdf_ir::retgen::IRange;

use crate::memory::Layout;

/// Register-file size of the executor (stack slots per worker). Deep
/// enough for any realistic body — lowering needs one slot per level of
/// *right-nesting*, not per operator — and small enough to live on the
/// worker's stack.
pub const MAX_REGS: usize = 64;

/// One bytecode instruction. `dst` is a stack slot; binary operators read
/// `dst` and `dst + 1` (postfix stack discipline), so no explicit operand
/// fields are needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// `regs[dst] = value` (literals and folded constant subtrees).
    Const {
        /// Destination slot.
        dst: u16,
        /// The constant.
        value: i64,
    },
    /// `regs[dst] = data[cursor + delta]` — one precomputed linear offset
    /// replaces the interpreter's per-access 2-D index math.
    Load {
        /// Destination slot.
        dst: u16,
        /// Linear offset from the statement's cursor.
        delta: isize,
    },
    /// `regs[dst] = -regs[dst]` (wrapping).
    Neg {
        /// Slot negated in place.
        dst: u16,
    },
    /// `regs[dst] = regs[dst] op regs[dst + 1]` (wrapping).
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand and destination slot.
        dst: u16,
    },
}

/// One lowered assignment: run [`CompiledStmt::instrs`], then store slot 0
/// at `cursor + store_delta`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledStmt {
    /// Linear offset of the written cell from the statement's cursor.
    pub store_delta: isize,
    /// Postfix bytecode; the result lands in slot 0.
    pub instrs: Vec<Instr>,
    /// Slots used (`<=` [`MAX_REGS`], enforced at lowering).
    pub regs: u16,
}

/// One lowered innermost loop (one MLDG node) of a fused kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledLoop {
    /// The loop's retiming offset `r(u)`.
    pub offset: IVec2,
    /// Fused rows `fi` where this loop is active (`0 <= fi + r.x <= n`).
    pub rows: IRange,
    /// Fused columns `fj` where this loop is active (`0 <= fj + r.y <= m`).
    pub cols: IRange,
    /// The loop body in textual order.
    pub stmts: Vec<CompiledStmt>,
}

/// Folds constant subtrees bottom-up, mirroring the interpreter's wrapping
/// semantics exactly (`BinOp::apply` / `wrapping_neg`).
pub fn fold_expr(e: &Expr) -> Expr {
    match e {
        Expr::Const(_) | Expr::Ref(_) => e.clone(),
        Expr::Neg(inner) => match fold_expr(inner) {
            Expr::Const(v) => Expr::Const(v.wrapping_neg()),
            folded => Expr::Neg(Box::new(folded)),
        },
        Expr::Bin(op, a, b) => match (fold_expr(a), fold_expr(b)) {
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(op.apply(x, y)),
            (fa, fb) => Expr::bin(*op, fa, fb),
        },
    }
}

fn lower_expr(
    layout: &Layout,
    e: &Expr,
    depth: u16,
    out: &mut Vec<Instr>,
    max_depth: &mut u16,
) -> Result<(), MdfError> {
    if depth as usize >= MAX_REGS {
        return Err(MdfError::invalid(format!(
            "expression nests deeper than the kernel register file ({MAX_REGS} slots)"
        )));
    }
    *max_depth = (*max_depth).max(depth + 1);
    match e {
        Expr::Const(v) => out.push(Instr::Const {
            dst: depth,
            value: *v,
        }),
        Expr::Ref(r) => out.push(Instr::Load {
            dst: depth,
            delta: layout.delta(r.array, r.di, r.dj),
        }),
        Expr::Neg(inner) => {
            lower_expr(layout, inner, depth, out, max_depth)?;
            out.push(Instr::Neg { dst: depth });
        }
        Expr::Bin(op, a, b) => {
            lower_expr(layout, a, depth, out, max_depth)?;
            lower_expr(layout, b, depth + 1, out, max_depth)?;
            out.push(Instr::Bin {
                op: *op,
                dst: depth,
            });
        }
    }
    Ok(())
}

/// Lowers one assignment: folds constants, then flattens to bytecode.
pub fn lower_stmt(layout: &Layout, s: &Stmt) -> Result<CompiledStmt, MdfError> {
    let folded = fold_expr(&s.rhs);
    let mut instrs = Vec::with_capacity(folded.op_count() + folded.refs().len() + 1);
    let mut regs = 0u16;
    lower_expr(layout, &folded, 0, &mut instrs, &mut regs)?;
    Ok(CompiledStmt {
        store_delta: layout.delta(s.lhs.array, s.lhs.di, s.lhs.dj),
        instrs,
        regs,
    })
}

/// Lowers one innermost loop of a fused spec at bounds `(n, m)`: its body
/// plus its active fused row/column ranges under retiming offset `r`.
pub fn lower_loop(
    layout: &Layout,
    stmts: &[Stmt],
    r: IVec2,
    n: i64,
    m: i64,
) -> Result<CompiledLoop, MdfError> {
    Ok(CompiledLoop {
        offset: r,
        rows: IRange {
            lo: -r.x,
            hi: n - r.x,
        },
        cols: IRange {
            lo: -r.y,
            hi: m - r.y,
        },
        stmts: stmts
            .iter()
            .map(|s| lower_stmt(layout, s))
            .collect::<Result<_, _>>()?,
    })
}

/// Evaluates lowered bytecode; `read(delta)` resolves `cursor + delta`
/// (the caller owns the cursor and the buffer, so the same bytecode runs
/// against a plain slice or the shared-cells view of a parallel step).
#[inline]
pub fn eval_compiled(
    instrs: &[Instr],
    regs: &mut [i64; MAX_REGS],
    read: impl Fn(isize) -> i64,
) -> i64 {
    for ins in instrs {
        match *ins {
            Instr::Const { dst, value } => regs[dst as usize] = value,
            Instr::Load { dst, delta } => regs[dst as usize] = read(delta),
            Instr::Neg { dst } => regs[dst as usize] = regs[dst as usize].wrapping_neg(),
            Instr::Bin { op, dst } => {
                regs[dst as usize] = op.apply(regs[dst as usize], regs[dst as usize + 1]);
            }
        }
    }
    regs[0]
}

/// Evaluates lowered bytecode at `width` consecutive cursors at once and
/// returns slot 0's lane: the statement's value at each cursor, in order.
/// `lanes` is the register file, slot `k` the lane
/// `lanes[k * width..(k + 1) * width]`, so it must hold at least
/// `regs * width` cells. `load(delta, lane)` fills `lane` with the
/// `width` cells from `cursor + delta` on (the caller owns the cursor and
/// the buffer, as for [`eval_compiled`]). Each lane operation has the
/// same wrapping semantics as the per-cell evaluator, so every lane ends
/// equal to what [`eval_compiled`] returns at its cursor on the same
/// memory.
#[inline]
pub fn eval_strip<'l>(
    instrs: &[Instr],
    lanes: &'l mut [i64],
    width: usize,
    load: impl Fn(isize, &mut [i64]),
) -> &'l [i64] {
    for ins in instrs {
        match *ins {
            Instr::Const { dst, value } => lane(lanes, dst, width).fill(value),
            Instr::Load { dst, delta } => load(delta, lane(lanes, dst, width)),
            Instr::Neg { dst } => {
                for v in lane(lanes, dst, width) {
                    *v = v.wrapping_neg();
                }
            }
            Instr::Bin { op, dst } => {
                let (a, b) = lanes[dst as usize * width..][..2 * width].split_at_mut(width);
                // One loop per operator, so each body is a single wrapping
                // operation; `apply` on a known operator folds to it.
                match op {
                    BinOp::Add => zip_lanes(a, b, |x, y| BinOp::Add.apply(x, y)),
                    BinOp::Sub => zip_lanes(a, b, |x, y| BinOp::Sub.apply(x, y)),
                    BinOp::Mul => zip_lanes(a, b, |x, y| BinOp::Mul.apply(x, y)),
                }
            }
        }
    }
    &lanes[..width]
}

/// Slot `dst`'s lane of a strip register file.
#[inline]
fn lane(lanes: &mut [i64], dst: u16, width: usize) -> &mut [i64] {
    &mut lanes[dst as usize * width..][..width]
}

/// `a[i] = f(a[i], b[i])` lane by lane.
#[inline(always)]
fn zip_lanes(a: &mut [i64], b: &[i64], f: impl Fn(i64, i64) -> i64) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = f(*x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::KernelMemory;
    use mdf_ir::ast::{ArrayRef, Program};
    use mdf_ir::samples::figure2_program;
    use mdf_sim::{eval_expr, Memory};

    fn figure2_layout() -> (Program, Layout) {
        let p = figure2_program();
        let layout = Layout::for_program(&p, 8, 8);
        (p, layout)
    }

    #[test]
    fn constant_folding_collapses_const_subtrees() {
        // -(2 * 3) + a[i][j]  =>  Const(-6) + Load
        let e = Expr::bin(
            BinOp::Add,
            Expr::Neg(Box::new(Expr::bin(
                BinOp::Mul,
                Expr::Const(2),
                Expr::Const(3),
            ))),
            Expr::Ref(ArrayRef::new(0, 0, 0)),
        );
        let folded = fold_expr(&e);
        assert_eq!(
            folded,
            Expr::bin(
                BinOp::Add,
                Expr::Const(-6),
                Expr::Ref(ArrayRef::new(0, 0, 0))
            )
        );
        // Folding matches the interpreter's wrapping semantics at extremes.
        let wrap = Expr::bin(BinOp::Mul, Expr::Const(i64::MAX), Expr::Const(2));
        assert_eq!(fold_expr(&wrap), Expr::Const(i64::MAX.wrapping_mul(2)));
    }

    #[test]
    fn lowered_statements_agree_with_the_interpreter() {
        // Every statement of Figure 2, evaluated at several iterations on
        // fresh memory, must produce exactly what `eval_expr` produces.
        let (p, layout) = figure2_layout();
        let imem = Memory::for_program(&p, 8, 8, 0);
        let kmem = KernelMemory::new(layout);
        let data = {
            // Clone the buffer through the public accessor surface.
            let mut v = Vec::with_capacity(layout.cells());
            for k in 0..layout.arrays {
                for i in -layout.halo..layout.rows - layout.halo {
                    for j in -layout.halo..layout.cols - layout.halo {
                        v.push(kmem.get(k, i, j));
                    }
                }
            }
            v
        };
        let mut regs = [0i64; MAX_REGS];
        for l in &p.loops {
            for s in &l.stmts {
                let c = lower_stmt(&layout, s).unwrap();
                for (i, j) in [(0, 0), (3, 5), (8, 8), (1, 7)] {
                    let cur = layout.cursor(i, j) as isize;
                    let got = eval_compiled(&c.instrs, &mut regs, |d| data[(cur + d) as usize]);
                    assert_eq!(
                        got,
                        eval_expr(&imem, &s.rhs, i, j),
                        "{}: ({i},{j})",
                        l.label
                    );
                }
            }
        }
    }

    #[test]
    fn deep_right_nesting_is_rejected_not_miscompiled() {
        // Right-leaning chains need one slot per level; past MAX_REGS the
        // lowering must fail typed.
        let mut e = Expr::Const(1);
        for _ in 0..(MAX_REGS + 4) {
            e = Expr::bin(BinOp::Add, Expr::Ref(ArrayRef::new(0, 0, 0)), e);
        }
        let layout = Layout {
            arrays: 1,
            halo: 0,
            rows: 4,
            cols: 4,
        };
        let s = Stmt {
            lhs: ArrayRef::new(0, 0, 0),
            rhs: e,
        };
        assert!(lower_stmt(&layout, &s).is_err());
        // Left-leaning chains of any length reuse two slots and must pass.
        let mut e = Expr::Const(1);
        for _ in 0..(MAX_REGS * 4) {
            e = Expr::bin(BinOp::Add, e, Expr::Ref(ArrayRef::new(0, 0, 0)));
        }
        let s = Stmt {
            lhs: ArrayRef::new(0, 0, 0),
            rhs: e,
        };
        let c = lower_stmt(&layout, &s).unwrap();
        assert!(c.regs <= 2, "left chain used {} regs", c.regs);
    }

    #[test]
    fn loop_ranges_follow_the_retiming_offset() {
        let (p, layout) = figure2_layout();
        let r = IVec2::new(-1, -1);
        let cl = lower_loop(&layout, &p.loops[3].stmts, r, 8, 8).unwrap();
        // 0 <= fi - 1 <= 8  =>  fi in [1, 9].
        assert_eq!((cl.rows.lo, cl.rows.hi), (1, 9));
        assert_eq!((cl.cols.lo, cl.cols.hi), (1, 9));
        assert_eq!(cl.stmts.len(), p.loops[3].stmts.len());
    }
}
