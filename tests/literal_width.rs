//! Literals past the 32-bit range compute the same values before and
//! after the sweep's optimizer: each kernel below stores the same
//! values under the reference interpreter as written and as
//! `cfp_dse::eval::plan` hands it to the scheduler. An immediate is a
//! register value, so no pass can read more of it than the machine does.

use custom_fit::dse::eval::{plan, residency_budget};
use custom_fit::frontend::compile_kernel;
use custom_fit::ir::{Interpreter, Kernel, KernelBuilder, MemImage, MemSpace, Ty};
use custom_fit::machine::ExtSet;
use custom_fit::obs::UnitTrace;

/// Around zero, both ends of the 32-bit range and past them.
const LITERALS: [&str; 8] = [
    "0",
    "1",
    "-1",
    "0x7fffffff",
    "0x80000000",
    "0xffffffff",
    "0x100000000",
    "-0x80000001",
];

/// The kernel language's binary operators.
const OPERATORS: [&str; 17] = [
    "||", "&&", "|", "^", "&", "==", "!=", "<", "<=", ">", ">=", "<<", ">>", ">>>", "+", "-", "*",
];

/// What `s` holds: every literal at register width, and a few
/// ordinary values on both sides of the select kernel's threshold.
const INPUT: [i64; 12] = [
    0,
    1,
    -1,
    0x7fff_ffff,
    -0x8000_0000,
    -1,
    0,
    0x7fff_ffff,
    5,
    100,
    101,
    -7,
];

/// The sweep's plan settings this suite tries: unroll factors that
/// divide `INPUT.len()`, with no extension and with every one.
const UNROLLS: [u32; 2] = [1, 2];
const EXTS: [ExtSet; 2] = [ExtSet::EMPTY, ExtSet::ALL];

fn dsl(stmt: &str) -> Kernel {
    let src = format!("kernel k(in i32 s[], out i32 d[]) {{ loop i {{ {stmt} }} }}");
    compile_kernel(&src, &[]).unwrap_or_else(|e| panic!("{}", e.render(&src)))
}

fn stored(kernel: &Kernel, iters: u64) -> Vec<i64> {
    let mut mem = MemImage::for_kernel(kernel);
    mem.bind(0, INPUT.to_vec());
    mem.bind(1, vec![0; INPUT.len()]);
    Interpreter::new()
        .run(kernel, &mut mem, iters)
        .expect("in bounds");
    mem.array(1).to_vec()
}

/// `kernel` stores the same values as written and through every plan.
fn check(what: &str, kernel: &Kernel) {
    let n = INPUT.len() as u64;
    let want = stored(kernel, n);
    for unroll in UNROLLS {
        for exts in EXTS {
            let planned = plan(
                kernel.clone(),
                residency_budget(64),
                unroll,
                exts,
                &mut UnitTrace::disabled(),
            )
            .expect("a tiny body is under the cap");
            let got = stored(&planned, n / u64::from(unroll));
            assert_eq!(got, want, "{what} at unroll {unroll}, {exts:?}");
        }
    }
}

#[test]
fn every_operator_with_a_wide_literal_on_either_side() {
    for op in OPERATORS {
        for lit in LITERALS {
            for stmt in [
                format!("d[i] = s[i] {op} ({lit});"),
                format!("d[i] = ({lit}) {op} s[i];"),
            ] {
                check(&stmt, &dsl(&stmt));
            }
        }
    }
}

/// A select reads a wide immediate at register width, both where the
/// frontend leaves one (a select whose equal arms fold to `c`, then a
/// select on that) and where a kernel is built with one as condition.
#[test]
fn a_select_on_a_wide_immediate_picks_the_arm_the_machine_picks() {
    let stmt = "var c = 0x100000000; var e = s[i] > 100 ? c : c; d[i] = e ? 5 : 7;";
    check(stmt, &dsl(stmt));

    let mut b = KernelBuilder::new("sel");
    let _s = b.array_in("s", Ty::I32, MemSpace::L2);
    let d = b.array_out("d", Ty::I32, MemSpace::L2);
    let v = b.sel(0x1_0000_0000_i64, 10_i64, 20_i64);
    b.store(d, 1, 0, v, Ty::I32);
    check("sel #0x100000000, #10, #20", &b.finish());
}
