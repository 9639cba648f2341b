//! `cfpc` — the custom-fit kernel compiler driver.
//!
//! Compile a kernel DSL file for a chosen architecture and inspect every
//! stage of the toolchain:
//!
//! ```sh
//! cfpc kernel.cfk                                  # baseline machine
//! cfpc kernel.cfk --arch "(8 4 256 2 4 4)"         # custom machine
//! cfpc kernel.cfk --unroll 4 --emit schedule
//! cfpc kernel.cfk --emit ir|schedule|stats|encoding
//! cfpc kernel.cfk --const W=512 --const f=2
//! cfpc kernel.cfk --trace spans.jsonl              # where the time went
//! ```
//!
//! The kernel compiled is the plan the design-space sweep prices for the
//! machine at that unroll factor (`cfp_dse::eval::plan`: optimize under
//! the machine's residency budget, unroll, re-optimize, fuse), so an
//! `--unroll` whose body the sweep would not attempt is refused.
//! `--no-opt` compiles the plain unrolled source instead.
//!
//! `--trace FILE` records one span per stage of the path — parse, lower,
//! every optimizer pass, prepare, assign, ddg, list, regalloc, then the
//! encoding and a short simulated run on zero-filled inputs — as JSON
//! Lines. Standard output is the same with and without it.

use custom_fit::dse::eval::{fuse_targets, residency_budget, MAX_BODY_OPS};
use custom_fit::ir::{ArrayKind, Kernel, MemImage};
use custom_fit::machine::{ArchSpec, CostModel, CycleModel, MachineResources};
use custom_fit::obs::{JsonlRecorder, UnitTrace};
use custom_fit::sched::Fuel;

const USAGE: &str = "\
usage: cfpc <file.cfk> [options]
  --arch \"(a m r p2 l2 c)\"   target architecture (default: baseline)
  --unroll N                 unroll the loop N times (default 1; a body
                             past the sweep's op cap is refused)
  --const NAME=VALUE         bind a const parameter (repeatable)
  --no-opt                   skip the optimizer
  --emit ir|schedule|stats|encoding   what to print (default stats)
  --trace FILE               write one JSON Lines span per stage to FILE
                             (adds an encode and a short simulated run)";

/// Loop iterations `--trace` simulates.
const TRACE_ITERS: u64 = 4;

struct Options {
    file: String,
    arch: ArchSpec,
    unroll: u32,
    consts: Vec<(String, i64)>,
    optimize: bool,
    emit: String,
    trace: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        file: String::new(),
        arch: ArchSpec::baseline(),
        unroll: 1,
        consts: Vec::new(),
        optimize: true,
        emit: "stats".to_owned(),
        trace: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--arch" => {
                let v = args.next().ok_or("--arch needs a value")?;
                opts.arch = ArchSpec::parse(&v)?;
            }
            "--unroll" => {
                let v = args.next().ok_or("--unroll needs a value")?;
                opts.unroll = v.parse().map_err(|e| format!("bad unroll: {e}"))?;
            }
            "--const" => {
                let v = args.next().ok_or("--const needs NAME=VALUE")?;
                let (name, value) = v.split_once('=').ok_or("expected NAME=VALUE")?;
                opts.consts.push((
                    name.to_owned(),
                    value.parse().map_err(|e| format!("bad const value: {e}"))?,
                ));
            }
            "--no-opt" => opts.optimize = false,
            "--emit" => {
                opts.emit = args.next().ok_or("--emit needs a value")?;
                if !["ir", "schedule", "stats", "encoding"].contains(&opts.emit.as_str()) {
                    return Err(format!("unknown emit kind `{}`", opts.emit));
                }
            }
            "--trace" => opts.trace = Some(args.next().ok_or("--trace needs a file")?),
            "-h" | "--help" => return Err(String::new()),
            other if opts.file.is_empty() && !other.starts_with('-') => {
                opts.file = other.to_owned();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.file.is_empty() {
        return Err("no input file".to_owned());
    }
    Ok(opts)
}

/// The longest array `--trace` will allocate for its simulated run.
const TRACE_MAX_ELEMS: i64 = 1 << 24;

/// Zero-filled bindings for every caller-provided array, long enough for
/// `iters` iterations of every access the kernel makes (a dynamic index
/// is taken to stay under 256, what a byte-indexed table needs). `None`
/// when the source asks for an array past [`TRACE_MAX_ELEMS`].
fn zeroed_inputs(kernel: &Kernel, iters: u64) -> Option<MemImage> {
    let last_iter = i64::try_from(iters.saturating_sub(1)).unwrap_or(i64::MAX);
    let mut lens: Vec<i64> = kernel
        .arrays
        .iter()
        .map(|decl| match decl.kind {
            ArrayKind::Local(len) => i64::from(len),
            _ => 0,
        })
        .collect();
    for m in kernel
        .preamble
        .iter()
        .chain(&kernel.body)
        .filter_map(|i| i.mem())
    {
        let highest = m.element_index(0, 0).max(m.element_index(last_iter, 0));
        let reach = highest.saturating_add(if m.is_affine() { 1 } else { 256 });
        let len = &mut lens[m.array.index()];
        *len = (*len).max(reach);
    }
    if lens.iter().any(|&len| len > TRACE_MAX_ELEMS) {
        return None;
    }
    let mut mem = MemImage::for_kernel(kernel);
    for (i, (decl, len)) in kernel.arrays.iter().zip(lens).enumerate() {
        if !matches!(decl.kind, ArrayKind::Local(_)) {
            mem.bind(i, vec![0; usize::try_from(len).unwrap_or(0)]);
        }
    }
    Some(mem)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            std::process::exit(if msg.is_empty() { 0 } else { 2 });
        }
    };

    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read `{}`: {e}", opts.file);
            std::process::exit(1);
        }
    };
    let consts: Vec<(&str, i64)> = opts.consts.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    // One trace handle down the whole path; without `--trace` it records
    // nothing and every stage below is its untraced self.
    let recorder = opts.trace.as_ref().map(|_| JsonlRecorder::new());
    let mut trace = match &recorder {
        Some(r) => UnitTrace::new(r, 0),
        None => UnitTrace::disabled(),
    };
    let kernel = match custom_fit::frontend::compile_kernel_traced(&source, &consts, &mut trace) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("{}", e.render(&source));
            std::process::exit(1);
        }
    };

    let unroll = opts.unroll.max(1);
    let kernel = if opts.optimize {
        // The plan the sweep prices for this machine at this unroll.
        let budget = residency_budget(opts.arch.regs);
        match custom_fit::dse::eval::plan(kernel, budget, unroll, opts.arch.exts, &mut trace) {
            Some(kernel) => kernel,
            None => {
                eprintln!(
                    "error: --unroll {unroll} makes a loop body over the sweep's cap of \
                     {MAX_BODY_OPS} ops; the sweep does not attempt it"
                );
                std::process::exit(2);
            }
        }
    } else {
        let mut kernel = custom_fit::opt::unroll::unroll(&kernel, unroll);
        // The fuse pass runs last, as in the sweep's plans.
        custom_fit::opt::fuse::fuse(&mut kernel, fuse_targets(opts.arch.exts));
        kernel
    };
    let fused = kernel.body.iter().filter_map(|i| i.fused_op()).count();

    let machine = MachineResources::from_spec(&opts.arch);
    let prepared = custom_fit::sched::prepare(&kernel, &machine, &mut trace);
    let core = match custom_fit::sched::try_compile_core(
        &prepared,
        &machine,
        &mut Fuel::unlimited(),
        &mut trace,
    ) {
        Ok(core) => core,
        Err(e) => {
            eprintln!("error: cannot schedule: {e}");
            std::process::exit(1);
        }
    };
    let result = custom_fit::sched::finish(&core, &machine);
    // Encoded once, for whichever of `--emit encoding` and `--trace`
    // asked.
    let program = (opts.emit == "encoding" || trace.on()).then(|| {
        custom_fit::sched::encode_traced(&result.assignment, &result.schedule, &machine, &mut trace)
    });

    match opts.emit.as_str() {
        "ir" => println!("{}", custom_fit::ir::pretty::Listing(&kernel)),
        "schedule" => {
            println!(
                "{}",
                custom_fit::sched::render(&result.schedule, &result.assignment)
            );
        }
        "encoding" => match program.as_ref().expect("encoded above") {
            Ok(prog) => {
                println!(
                    "{} words x {} slots; {} bytes raw, {} compressed",
                    prog.words.len(),
                    prog.slots_per_word,
                    prog.raw_bytes(),
                    prog.compressed_bytes()
                );
                for (t, word) in prog.words.iter().enumerate() {
                    print!("{t:4}: mask={:0w$b} ", word.mask, w = prog.slots_per_word);
                    for op in &word.ops {
                        print!("{op:012x} ");
                    }
                    if !word.imms.is_empty() {
                        print!("| pool {:?}", word.imms);
                    }
                    println!();
                }
            }
            Err(e) => {
                eprintln!("error: cannot encode: {e}");
                std::process::exit(1);
            }
        },
        _ => {
            let cost = CostModel::paper_calibrated();
            let cycle = CycleModel::paper_calibrated();
            println!("kernel     : {} (unroll x{unroll})", kernel.name);
            println!("machine    : {}", opts.arch);
            println!(
                "cost       : {:.2} (baseline-relative)",
                cost.cost(&opts.arch)
            );
            println!("cycle time : {:.2}x baseline", cycle.derate(&opts.arch));
            println!(
                "ops        : {} ({} moves{})",
                result.assignment.code.ops.len(),
                result.move_count,
                if opts.arch.exts.is_empty() {
                    String::new()
                } else {
                    format!(", {fused} fused")
                }
            );
            println!(
                "schedule   : {} cycles/iter (critical path {}, {:.2} cycles/output)",
                result.length,
                result.critical_path,
                f64::from(result.cycles_per_iter()) / f64::from(kernel.outputs_per_iter)
            );
            println!(
                "registers  : peak {:?} of {:?}{}",
                result.pressure.peak,
                result.pressure.capacity,
                if result.fits() {
                    String::new()
                } else {
                    format!(
                        " — SPILLS ({} over, +{} cycles)",
                        result.pressure.spill_excess(),
                        result.spill_penalty
                    )
                }
            );
        }
    }

    if let (Some(path), Some(recorder)) = (&opts.trace, &recorder) {
        // The spans of a failed encode or simulation say `ok: false`;
        // neither changes what was printed above.
        if let Some(Err(e)) = &program {
            eprintln!("note: not encoded: {e}");
        }
        match zeroed_inputs(&kernel, TRACE_ITERS) {
            Some(mut mem) => {
                if let Err(e) = custom_fit::sched::simulate_traced(
                    &kernel,
                    &result,
                    &machine,
                    &mut mem,
                    TRACE_ITERS,
                    &mut trace,
                ) {
                    eprintln!("note: simulation on zero-filled inputs stopped: {e}");
                }
            }
            None => eprintln!("note: not simulated: an array is over {TRACE_MAX_ELEMS} elements"),
        }
        if let Err(e) = std::fs::write(path, recorder.to_jsonl()) {
            eprintln!("error: cannot write `{path}`: {e}");
            std::process::exit(1);
        }
    }
}
