//! Leakage contracts: the per-core observable model as a first-class,
//! checkable interface.
//!
//! The paper's modular story is "prove each layer against an explicit
//! interface". The side-channel assumptions used to be the one
//! interface left implicit: each core hard-coded a latency table in
//! its tick loop, the FPS checker trusted those tables without ever
//! checking them, and the asm lint kept its own parallel list of
//! variable-latency instructions. A [`LeakageContract`] makes the
//! model declarative — per [`InstrClass`]: fixed or operand-dependent
//! latency (with the dependence function), address-trace visibility,
//! and which [`LeakKind`] the core raises when the governing operand
//! is tainted — and both cores now *derive* their cycle charging from
//! their exported contract, so declaration and behavior cannot drift
//! apart silently.
//!
//! The contract is verified, not assumed: [`check_core`] drives a core
//! through a per-instruction-class stimulus battery and compares
//! measured retire-to-retire cycle deltas, data-bus activity, and leak
//! events against the declared clauses. A core whose divider takes
//! longer than its contract admits, or whose "fixed-latency" shifter
//! secretly depends on the amount, fails here with a named instruction
//! class — not later as an opaque FPS divergence. The `contract`
//! pipeline stage (crates/pipeline) caches that check, and the asm
//! lint consumes the same clauses to decide CT-LATENCY / CT-MEM
//! applicability (crates/analyzer).

use parfait_riscv::asm::assemble;
use parfait_riscv::isa::AluOp;
use parfait_rtl::W;

use crate::datapath::{Core, LeakKind, MemIf, OpClass};

/// The shared instruction-class vocabulary.
///
/// This is the *value-free* projection of [`OpClass`] (which carries
/// operand values and taint for latency evaluation): one name per
/// timing-relevant instruction family, used identically by the cores'
/// contracts, the contract-check battery, and the asm lint — no
/// parallel enums to drift apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum InstrClass {
    /// Simple ALU ops, lui/auipc, and anything else single-issue.
    Alu,
    /// Shifts (sll/srl/sra and immediate forms).
    Shift,
    /// Multiplies (mul/mulh/mulhsu/mulhu).
    Mul,
    /// Divides and remainders (div/divu/rem/remu).
    Div,
    /// Memory loads.
    Load,
    /// Memory stores.
    Store,
    /// Conditional branches.
    Branch,
    /// jal/jalr.
    Jump,
    /// fence.
    Fence,
}

impl InstrClass {
    /// Every class, in the canonical (serialization) order.
    pub const ALL: [InstrClass; 9] = [
        InstrClass::Alu,
        InstrClass::Shift,
        InstrClass::Mul,
        InstrClass::Div,
        InstrClass::Load,
        InstrClass::Store,
        InstrClass::Branch,
        InstrClass::Jump,
        InstrClass::Fence,
    ];

    /// Stable lowercase name (used in contract text and error messages).
    pub fn as_str(self) -> &'static str {
        match self {
            InstrClass::Alu => "alu",
            InstrClass::Shift => "shift",
            InstrClass::Mul => "mul",
            InstrClass::Div => "div",
            InstrClass::Load => "load",
            InstrClass::Store => "store",
            InstrClass::Branch => "branch",
            InstrClass::Jump => "jump",
            InstrClass::Fence => "fence",
        }
    }

    /// Index into a contract's clause table.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|c| *c == self).unwrap()
    }

    /// Classify an executed operation.
    pub fn of(op: &OpClass) -> InstrClass {
        match op {
            OpClass::Alu => InstrClass::Alu,
            OpClass::Shift { .. } => InstrClass::Shift,
            OpClass::Mul { .. } => InstrClass::Mul,
            OpClass::Div { .. } => InstrClass::Div,
            OpClass::Load => InstrClass::Load,
            OpClass::Store => InstrClass::Store,
            OpClass::Branch { .. } => InstrClass::Branch,
            OpClass::Jump => InstrClass::Jump,
            OpClass::Fence => InstrClass::Fence,
        }
    }

    /// Classify a register-register / register-immediate ALU opcode —
    /// the mapping the asm lint uses, so its variable-latency rules
    /// come from the same vocabulary the cores declare against.
    pub fn of_alu(op: AluOp) -> InstrClass {
        match op {
            AluOp::Sll | AluOp::Srl | AluOp::Sra => InstrClass::Shift,
            AluOp::Mul | AluOp::Mulh | AluOp::Mulhsu | AluOp::Mulhu => InstrClass::Mul,
            AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => InstrClass::Div,
            _ => InstrClass::Alu,
        }
    }
}

impl std::fmt::Display for InstrClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The operand an operand-dependent latency counts from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyDep {
    /// Significant bits of the dividend (`32 − leading_zeros`) — an
    /// iterative divider.
    DividendBits,
    /// Shift amount processed `bits_per_cycle` bits per cycle — a
    /// serial shifter.
    ShiftChunks {
        /// Bits retired per shifter cycle.
        bits_per_cycle: u32,
    },
}

impl LatencyDep {
    /// Extra cycles contributed by the governing operand `value`.
    pub fn units(self, value: u32) -> u32 {
        match self {
            LatencyDep::DividendBits => 32 - value.leading_zeros(),
            LatencyDep::ShiftChunks { bits_per_cycle } => value.div_ceil(bits_per_cycle),
        }
    }

    /// The governing operand of `op` under this dependence, if the
    /// operation carries one.
    fn governing(self, op: &OpClass) -> Option<u32> {
        match (self, op) {
            (LatencyDep::DividendBits, OpClass::Div { dividend, .. }) => Some(*dividend),
            (LatencyDep::ShiftChunks { .. }, OpClass::Shift { amount, .. }) => Some(*amount),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            LatencyDep::DividendBits => "dividend-bits",
            LatencyDep::ShiftChunks { .. } => "shift-chunks",
        }
    }
}

/// Declared execute latency of one instruction class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Latency {
    /// The same cycle count for every operand value.
    Fixed(u32),
    /// `base + dep.units(governing operand)` cycles — the dependence
    /// function is part of the declaration, so "variable latency"
    /// is never an unbounded claim.
    Operand {
        /// Cycles charged independently of the operand.
        base: u32,
        /// How the operand contributes cycles.
        dep: LatencyDep,
    },
}

impl Latency {
    /// Is the latency a function of operand values?
    pub fn operand_dependent(&self) -> bool {
        matches!(self, Latency::Operand { .. })
    }

    /// Cycles the contract admits for `op`. A mismatched clause/op pair
    /// (contract says shift-dependent, op is not a shift) contributes
    /// no operand units — the battery never produces such pairs.
    pub fn cycles(&self, op: &OpClass) -> u32 {
        match self {
            Latency::Fixed(n) => *n,
            Latency::Operand { base, dep } => base + dep.governing(op).map_or(0, |v| dep.units(v)),
        }
    }

    /// Cycles the contract admits over *every* operand value — the
    /// per-instruction cost the static WCET bound charges. Dividend
    /// bits max out at 32 (a full-width dividend); shift chunks at a
    /// 31-bit amount (RV32 shifts mask the amount to 5 bits).
    pub fn worst_cycles(&self) -> u32 {
        match self {
            Latency::Fixed(n) => *n,
            Latency::Operand { base, dep } => {
                base + match dep {
                    LatencyDep::DividendBits => 32,
                    LatencyDep::ShiftChunks { .. } => dep.units(31),
                }
            }
        }
    }
}

/// The declared observable model of one instruction class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Clause {
    /// Execute-stage cycles (total occupancy, in the core's own
    /// normalized unit — see [`LeakageContract::overhead`]).
    pub latency: Latency,
    /// Does this class place an operand-derived address on the data
    /// bus (an address trace the adversary observes)?
    pub addr_trace: bool,
    /// The leak event the core raises when the class's governing
    /// operand (dividend, shift amount, address base, branch
    /// condition, jump target) is tainted — `None` means the core
    /// performs no taint check on this path and relies on the
    /// dual-world FPS comparison instead.
    pub leak_on_tainted: Option<LeakKind>,
}

/// A core's complete declared leakage model.
///
/// `overhead` and `redirect_penalty` normalize per-class latencies
/// across microarchitectures: a retire-to-retire delta in steady state
/// is `overhead + clause.latency.cycles(op)`, plus `redirect_penalty`
/// for the instruction following a taken branch or jump. For the
/// 2-stage Ibex, overhead is 0 (IF overlaps EX) and a redirect costs
/// one squashed fetch; for the multi-cycle Pico, overhead is the
/// 2-cycle fetch and redirects are free (it refetches every
/// instruction anyway).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeakageContract {
    /// Core name (matches the platform `Cpu` display name).
    pub core: &'static str,
    /// Contract revision — bumped on any semantic re-declaration, so
    /// cached checks against the old declaration are invalidated even
    /// if the clause table happens to coincide.
    pub revision: u32,
    /// Per-instruction fetch/decode cycles in steady state.
    pub overhead: u32,
    /// Extra cycles charged to the instruction after a redirect.
    pub redirect_penalty: u32,
    /// Clause per [`InstrClass`], indexed by [`InstrClass::index`].
    pub clauses: [Clause; 9],
}

impl LeakageContract {
    /// The clause governing `class`.
    pub fn clause(&self, class: InstrClass) -> &Clause {
        &self.clauses[class.index()]
    }

    /// Execute cycles the contract admits for `op`.
    pub fn cycles(&self, op: &OpClass) -> u32 {
        self.clause(InstrClass::of(op)).latency.cycles(op)
    }

    /// The worst-case retire-to-retire cost of one instruction of
    /// `class` in steady state (no redirect): per-instruction overhead
    /// plus the clause's worst latency over all operand values. The
    /// static bound analysis adds [`Self::redirect_penalty`] on taken
    /// branches and jumps.
    pub fn worst_cost(&self, class: InstrClass) -> u32 {
        self.overhead + self.clause(class).latency.worst_cycles()
    }

    /// Canonical text rendering — the content that is hashed into the
    /// certificate-cache keys of every pipeline stage that trusts this
    /// contract (contract check, ctcheck, fps). Editing a contract
    /// therefore invalidates exactly the dependent certificates.
    pub fn canonical(&self) -> String {
        use std::fmt::Write;
        let mut s = format!(
            "leakage-contract-v1 core={} rev={} overhead={} redirect-penalty={}\n",
            self.core, self.revision, self.overhead, self.redirect_penalty
        );
        for class in InstrClass::ALL {
            let c = self.clause(class);
            let lat = match c.latency {
                Latency::Fixed(n) => format!("fixed({n})"),
                Latency::Operand { base, dep } => match dep {
                    LatencyDep::ShiftChunks { bits_per_cycle } => {
                        format!(
                            "operand({} bits-per-cycle={bits_per_cycle} base={base})",
                            dep.as_str()
                        )
                    }
                    LatencyDep::DividendBits => format!("operand({} base={base})", dep.as_str()),
                },
            };
            let leak = match c.leak_on_tainted {
                None => "-".to_string(),
                Some(k) => format!("{k:?}"),
            };
            let _ = writeln!(
                s,
                "{class}: latency={lat} addr-trace={} leak-on-tainted={leak}",
                if c.addr_trace { "yes" } else { "no" }
            );
        }
        s
    }
}

/// The contract term a recorded leak event violates or witnesses —
/// shared vocabulary for the FPS checker's leak classification, so a
/// hardware-level taint report and the contract that declared it use
/// the same words.
pub fn leak_term(kind: LeakKind, class: InstrClass) -> &'static str {
    match kind {
        LeakKind::VarLatencySecret => match class {
            InstrClass::Shift => "operand-dependent latency clause [shift] on tainted amount",
            InstrClass::Div => "operand-dependent latency clause [div] on tainted operand",
            _ => "operand-dependent latency clause on tainted operand",
        },
        LeakKind::AddrSecret => match class {
            InstrClass::Store => "address-trace clause [store] on tainted address",
            _ => "address-trace clause [load] on tainted address",
        },
        LeakKind::BranchOnSecret => "pc-trace clause [branch] on tainted condition",
        LeakKind::JumpTargetSecret => "pc-trace clause [jump] on tainted target",
    }
}

/// A contract check failure, naming the instruction class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContractError {
    /// The instruction class whose observed behavior exceeded (or fell
    /// short of) its declared clause.
    pub class: InstrClass,
    /// The stimulus and the measured-vs-admitted discrepancy.
    pub detail: String,
}

impl std::fmt::Display for ContractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "instruction class [{}]: {}", self.class, self.detail)
    }
}

/// Stimulus-battery version — bumped whenever the battery's programs
/// or checks change, so cached contract-check certificates keyed on it
/// are invalidated exactly when the check itself changes.
pub const BATTERY_VERSION: u32 = 1;

/// What the stimulus battery ran, for reporting and metrics.
#[derive(Clone, Debug, Default)]
pub struct BatteryReport {
    /// Stimulus programs run per instruction class, in
    /// [`InstrClass::ALL`] order (classes with zero stimuli omitted).
    pub stimuli: Vec<(InstrClass, u32)>,
    /// Total stimulus programs run.
    pub total: u32,
    /// Total measured instruction retirements across all stimuli.
    pub measured_retirements: u32,
}

/// Flat assembler-backed stimulus memory with taintable data words and
/// a recorded data-bus trace (the "observable wires" of the check).
struct StimMem {
    words: Vec<W>,
    /// Data-bus accesses: (is_write, word address).
    bus: Vec<(bool, u32)>,
}

impl StimMem {
    fn from_asm(src: &str) -> StimMem {
        let p = assemble(src).expect("contract stimulus assembles");
        let mut words = vec![W::default(); 4096];
        for (i, w) in p.text.iter().enumerate() {
            words[i] = W::pub32(*w);
        }
        StimMem { words, bus: Vec::new() }
    }

    fn set_word(&mut self, addr: u32, w: W) {
        self.words[(addr / 4) as usize] = w;
    }
}

impl MemIf for StimMem {
    fn fetch(&mut self, addr: u32) -> u32 {
        self.words[(addr / 4) as usize].v
    }
    fn read(&mut self, addr: u32) -> W {
        self.bus.push((false, addr));
        self.words[(addr / 4) as usize]
    }
    fn write(&mut self, addr: u32, val: W, mask: u8) {
        self.bus.push((true, addr));
        let old = self.words[(addr / 4) as usize];
        let mut v = old.v;
        for lane in 0..4 {
            if mask & (1 << lane) != 0 {
                let sh = 8 * lane;
                v = (v & !(0xFF << sh)) | (val.v & (0xFF << sh));
            }
        }
        self.words[(addr / 4) as usize] = W { v, t: old.t || val.t };
    }
}

/// One stimulus program: setup instructions, then a measured window of
/// instructions whose retire-to-retire deltas and leak events are
/// checked against the contract.
struct Stimulus {
    class: InstrClass,
    name: &'static str,
    asm: String,
    /// Instructions before the measured window (their timing is not
    /// checked; the last one anchors the first measured delta).
    setup: u32,
    /// Expected retirement sequence of the measured window: the
    /// operation (with operand values, for latency evaluation) and
    /// whether it redirects the fetch stream.
    ops: Vec<(OpClass, bool)>,
    /// Instruction classes whose governing operand is tainted in this
    /// stimulus. The *expected* leak set is derived from the contract
    /// under test (each tainted class must raise exactly its clause's
    /// `leak_on_tainted`, and nothing else may leak) — so a core that
    /// declares no taint check is held to silence, and one that
    /// declares a leak is held to raising it.
    tainted: Vec<InstrClass>,
    /// Data words poked before the run: (byte addr, value, tainted).
    data: Vec<(u32, u32, bool)>,
    /// Word addresses that must appear on the data bus during the
    /// window ((is_write, addr)) — the address-trace clause made
    /// observable.
    bus: Vec<(bool, u32)>,
}

fn shift_op(amount: u32, from_reg: bool) -> OpClass {
    OpClass::Shift { amount, from_reg }
}

/// The battery: every contract clause gets stimuli that distinguish it
/// from its neighbors — multiple operand magnitudes for the
/// operand-dependent clauses (so an undeclared dependence or an
/// understated base shows up as a delta mismatch), tainted and
/// untainted governing operands for the leak clauses, and bus-trace
/// assertions for the address-visibility clauses.
fn stimuli() -> Vec<Stimulus> {
    let mut v = Vec::new();

    // Scratch data page, far enough from the text to never collide.
    const DATA: u32 = 0x700;
    const TAINTED: u32 = 0x740;

    v.push(Stimulus {
        class: InstrClass::Alu,
        name: "add chain",
        asm: "addi t0, zero, 5\naddi t1, zero, 9\nadd t2, t0, t1\nadd t3, t1, t0\n\
              add t4, t0, t0\nnop\nnop\nnop"
            .into(),
        setup: 2,
        ops: vec![(OpClass::Alu, false), (OpClass::Alu, false), (OpClass::Alu, false)],
        tainted: vec![],
        data: vec![],
        bus: vec![],
    });

    for amt in [0u32, 1, 13, 31] {
        v.push(Stimulus {
            class: InstrClass::Shift,
            name: "immediate shift",
            asm: format!("addi t0, zero, 1\nslli t2, t0, {amt}\nslli t3, t0, {amt}\nnop\nnop\nnop"),
            setup: 1,
            ops: vec![(shift_op(amt, false), false), (shift_op(amt, false), false)],
            tainted: vec![],
            data: vec![],
            bus: vec![],
        });
        v.push(Stimulus {
            class: InstrClass::Shift,
            name: "register shift",
            asm: format!(
                "addi t0, zero, 1\naddi t1, zero, {amt}\nsll t2, t0, t1\nsll t3, t0, t1\n\
                 nop\nnop\nnop"
            ),
            setup: 2,
            ops: vec![(shift_op(amt, true), false), (shift_op(amt, true), false)],
            tainted: vec![],
            data: vec![],
            bus: vec![],
        });
    }

    for (a, b, asm_a, asm_b) in [
        (0u32, 0u32, "addi t0, zero, 0", "addi t1, zero, 0"),
        (3, 0xFFFF_FFFF, "addi t0, zero, 3", "addi t1, zero, -1"),
        (0x7FF, 0x7FF, "addi t0, zero, 2047", "addi t1, zero, 2047"),
        (1, 1, "addi t0, zero, 1", "addi t1, zero, 1"),
    ] {
        v.push(Stimulus {
            class: InstrClass::Mul,
            name: "multiply",
            asm: format!("{asm_a}\n{asm_b}\nmul t2, t0, t1\nmul t3, t0, t1\nnop\nnop\nnop"),
            setup: 2,
            ops: vec![(OpClass::Mul { a, b }, false), (OpClass::Mul { a, b }, false)],
            tainted: vec![],
            data: vec![],
            bus: vec![],
        });
    }

    for (dividend, setup_asm) in [
        (0u32, "addi t0, zero, 0"),
        (1, "addi t0, zero, 1"),
        (0x80, "addi t0, zero, 128"),
        (0xFFFF_FFFF, "addi t0, zero, -1"),
    ] {
        v.push(Stimulus {
            class: InstrClass::Div,
            name: "divide",
            asm: format!(
                "{setup_asm}\naddi t1, zero, 3\ndivu t2, t0, t1\ndivu t3, t0, t1\nnop\nnop\nnop"
            ),
            setup: 2,
            ops: vec![(OpClass::Div { dividend }, false), (OpClass::Div { dividend }, false)],
            tainted: vec![],
            data: vec![],
            bus: vec![],
        });
    }

    // Tainted governing operands: the leak clauses. The tainted word
    // is loaded with a *public* base (no AddrSecret from the setup).
    v.push(Stimulus {
        class: InstrClass::Div,
        name: "divide on tainted dividend",
        asm: format!("lw t0, {TAINTED}(zero)\naddi t1, zero, 3\ndivu t2, t0, t1\nnop\nnop\nnop"),
        setup: 2,
        ops: vec![(OpClass::Div { dividend: 100 }, false)],
        tainted: vec![InstrClass::Div],
        data: vec![(TAINTED, 100, true)],
        bus: vec![],
    });
    v.push(Stimulus {
        class: InstrClass::Shift,
        name: "register shift by tainted amount",
        asm: format!("addi t0, zero, 1\nlw t1, {TAINTED}(zero)\nsll t2, t0, t1\nnop\nnop\nnop"),
        setup: 2,
        ops: vec![(shift_op(13, true), false)],
        tainted: vec![InstrClass::Shift],
        data: vec![(TAINTED, 13, true)],
        bus: vec![],
    });

    v.push(Stimulus {
        class: InstrClass::Load,
        name: "load (public address)",
        asm: format!("addi t0, zero, {DATA}\nlw t2, 0(t0)\nlw t3, 4(t0)\nnop\nnop\nnop"),
        setup: 1,
        ops: vec![(OpClass::Load, false), (OpClass::Load, false)],
        tainted: vec![],
        data: vec![(DATA, 0x1234, false), (DATA + 4, 0x5678, false)],
        bus: vec![(false, DATA), (false, DATA + 4)],
    });
    v.push(Stimulus {
        class: InstrClass::Load,
        name: "load via tainted base",
        asm: format!("lw t0, {TAINTED}(zero)\nlw t2, 0(t0)\nnop\nnop\nnop"),
        setup: 1,
        ops: vec![(OpClass::Load, false)],
        tainted: vec![InstrClass::Load],
        data: vec![(TAINTED, DATA, true), (DATA, 0x9abc, false)],
        bus: vec![(false, DATA)],
    });
    v.push(Stimulus {
        class: InstrClass::Store,
        name: "store (public address)",
        asm: format!(
            "addi t0, zero, {DATA}\naddi t1, zero, 42\nsw t1, 0(t0)\nsw t1, 4(t0)\nnop\nnop\nnop"
        ),
        setup: 2,
        ops: vec![(OpClass::Store, false), (OpClass::Store, false)],
        tainted: vec![],
        data: vec![],
        bus: vec![(true, DATA), (true, DATA + 4)],
    });
    v.push(Stimulus {
        class: InstrClass::Store,
        name: "store via tainted base",
        asm: format!("lw t0, {TAINTED}(zero)\nsw zero, 0(t0)\nnop\nnop\nnop"),
        setup: 1,
        ops: vec![(OpClass::Store, false)],
        tainted: vec![InstrClass::Store],
        data: vec![(TAINTED, DATA, true)],
        bus: vec![(true, DATA)],
    });

    v.push(Stimulus {
        class: InstrClass::Branch,
        name: "branch not taken",
        asm: "addi t0, zero, 1\nbne zero, zero, away\nadd t2, t0, t0\naway:\nnop\nnop\nnop".into(),
        setup: 1,
        ops: vec![(OpClass::Branch { taken: false }, false), (OpClass::Alu, false)],
        tainted: vec![],
        data: vec![],
        bus: vec![],
    });
    v.push(Stimulus {
        class: InstrClass::Branch,
        name: "branch taken",
        asm: "addi t0, zero, 1\nbeq zero, zero, over\nadd t2, t0, t0\nover:\n\
              add t3, t0, t0\nnop\nnop\nnop"
            .into(),
        setup: 1,
        ops: vec![(OpClass::Branch { taken: true }, true), (OpClass::Alu, false)],
        tainted: vec![],
        data: vec![],
        bus: vec![],
    });
    v.push(Stimulus {
        class: InstrClass::Branch,
        name: "branch on tainted condition",
        asm: format!("lw t0, {TAINTED}(zero)\nbne t0, t0, away\naway:\nnop\nnop\nnop"),
        setup: 1,
        ops: vec![(OpClass::Branch { taken: false }, false)],
        tainted: vec![InstrClass::Branch],
        data: vec![(TAINTED, 7, true)],
        bus: vec![],
    });

    v.push(Stimulus {
        class: InstrClass::Jump,
        name: "jal",
        asm: "addi t0, zero, 1\njal t3, over\nadd t2, t0, t0\nover:\n\
              add t4, t0, t0\nnop\nnop\nnop"
            .into(),
        setup: 1,
        ops: vec![(OpClass::Jump, true), (OpClass::Alu, false)],
        tainted: vec![],
        data: vec![],
        bus: vec![],
    });
    v.push(Stimulus {
        class: InstrClass::Jump,
        name: "jalr via tainted target",
        // The tainted word holds the (valid) target pc, so the jump
        // lands on real code while its target register is tainted.
        asm: format!(
            "lw t0, {TAINTED}(zero)\njalr t3, t0, 0\nnop\nover:\nadd t4, zero, zero\n\
             nop\nnop\nnop"
        ),
        setup: 1,
        ops: vec![(OpClass::Jump, true), (OpClass::Alu, false)],
        tainted: vec![InstrClass::Jump],
        // Target = instruction index 3 ("over") × 4 bytes.
        data: vec![(TAINTED, 12, true)],
        bus: vec![],
    });

    v.push(Stimulus {
        class: InstrClass::Fence,
        name: "fence",
        asm: "addi t0, zero, 1\nfence\nfence\nnop\nnop\nnop".into(),
        setup: 1,
        ops: vec![(OpClass::Fence, false), (OpClass::Fence, false)],
        tainted: vec![],
        data: vec![],
        bus: vec![],
    });

    v
}

/// Check a core against its declared contract by running the stimulus
/// battery. `make` constructs a fresh core booted at pc 0 — pass the
/// same seeded fault the system under test carries, so a mutated core
/// is checked, not a pristine stand-in.
pub fn check_core(
    make: &mut dyn FnMut() -> Box<dyn Core>,
    contract: &LeakageContract,
) -> Result<BatteryReport, ContractError> {
    let mut report = BatteryReport::default();
    for stim in stimuli() {
        run_stimulus(&mut make(), &stim, contract)?;
        report.total += 1;
        report.measured_retirements += stim.ops.len() as u32;
        match report.stimuli.iter_mut().find(|(c, _)| *c == stim.class) {
            Some((_, n)) => *n += 1,
            None => report.stimuli.push((stim.class, 1)),
        }
    }
    report.stimuli.sort_by_key(|(c, _)| c.index());
    Ok(report)
}

fn run_stimulus(
    core: &mut Box<dyn Core>,
    stim: &Stimulus,
    contract: &LeakageContract,
) -> Result<(), ContractError> {
    let fail = |detail: String| ContractError { class: stim.class, detail };
    let mut mem = StimMem::from_asm(&stim.asm);
    for &(addr, value, tainted) in &stim.data {
        mem.set_word(addr, W { v: value, t: tainted });
    }
    let total = stim.setup as u64 + stim.ops.len() as u64;
    let mut retire_cycles: Vec<u64> = Vec::new();
    let mut guard = 0u32;
    while core.retired() < total {
        core.step(&mut mem);
        if core.last_retired().is_some() {
            retire_cycles.push(core.cycles());
        }
        guard += 1;
        if guard > 10_000 {
            return Err(fail(format!(
                "stimulus `{}` did not retire {total} instructions in 10000 cycles",
                stim.name
            )));
        }
    }
    if let Some(f) = core.fault() {
        return Err(fail(format!("stimulus `{}` faulted: {f:?}", stim.name)));
    }
    // Retire-to-retire deltas over the measured window, each predicted
    // from the clause: overhead + admitted cycles (+ redirect penalty
    // when the previous instruction redirected the fetch stream).
    let mut prev_redirected = false;
    for (i, (op, redirects)) in stim.ops.iter().enumerate() {
        let at = stim.setup as usize + i;
        let delta = retire_cycles[at] - retire_cycles[at - 1];
        let admitted = u64::from(
            contract.overhead
                + contract.cycles(op)
                + if prev_redirected { contract.redirect_penalty } else { 0 },
        );
        if delta != admitted {
            let class = InstrClass::of(op);
            return Err(ContractError {
                class,
                detail: format!(
                    "stimulus `{}` instruction {i}: measured {delta} cycles, contract \
                     admits {admitted} ({})",
                    stim.name,
                    match contract.clause(class).latency {
                        Latency::Fixed(n) => format!("fixed latency {n}"),
                        Latency::Operand { base, dep } =>
                            format!("operand-dependent: base {base} + {}", dep.as_str()),
                    }
                ),
            });
        }
        prev_redirected = *redirects;
    }
    // Leak events: each tainted class must raise exactly its clause's
    // declared `leak_on_tainted`, and nothing else may leak.
    let got: Vec<(LeakKind, InstrClass)> = {
        let mut kinds: Vec<(LeakKind, InstrClass)> =
            core.leaks().iter().map(|l| (l.kind, l.class)).collect();
        kinds.sort_by_key(|(k, c)| (*k as u32, c.index()));
        kinds.dedup();
        kinds
    };
    let want: Vec<(LeakKind, InstrClass)> = stim
        .tainted
        .iter()
        .filter_map(|c| contract.clause(*c).leak_on_tainted.map(|k| (k, *c)))
        .collect();
    for (k, c) in &want {
        if !got.contains(&(*k, *c)) {
            return Err(ContractError {
                class: *c,
                detail: format!(
                    "stimulus `{}`: declared leak {k:?} on tainted operand was not raised",
                    stim.name
                ),
            });
        }
    }
    for (k, c) in &got {
        if !want.contains(&(*k, *c)) {
            return Err(ContractError {
                class: *c,
                detail: format!("stimulus `{}`: undeclared leak {k:?} was raised", stim.name),
            });
        }
    }
    // The observable data-bus trace must contain the declared accesses.
    for (is_write, addr) in &stim.bus {
        if !mem.bus.iter().any(|(w, a)| w == is_write && a & !3 == addr & !3) {
            return Err(fail(format!(
                "stimulus `{}`: expected {} of {addr:#x} never appeared on the data bus",
                stim.name,
                if *is_write { "a write" } else { "a read" }
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ibex::IbexCore;
    use crate::pico::PicoCore;

    #[test]
    fn both_cores_pass_their_own_contracts() {
        let mut mk_ibex = || -> Box<dyn Core> { Box::new(IbexCore::new(0)) };
        let r = check_core(&mut mk_ibex, crate::ibex::contract()).expect("ibex honors contract");
        assert!(r.total >= 20, "battery should be substantive, ran {}", r.total);
        assert_eq!(r.stimuli.len(), InstrClass::ALL.len(), "every class exercised");
        let mut mk_pico = || -> Box<dyn Core> { Box::new(PicoCore::new(0)) };
        check_core(&mut mk_pico, crate::pico::contract()).expect("pico honors contract");
    }

    #[test]
    fn cores_fail_each_others_contracts() {
        // The contracts genuinely differ (overhead, shifter, divider
        // base): swapping them must fail with a named class.
        let mut mk_ibex = || -> Box<dyn Core> { Box::new(IbexCore::new(0)) };
        let err = check_core(&mut mk_ibex, crate::pico::contract()).unwrap_err();
        assert!(!err.to_string().is_empty());
        let mut mk_pico = || -> Box<dyn Core> { Box::new(PicoCore::new(0)) };
        check_core(&mut mk_pico, crate::ibex::contract()).unwrap_err();
    }

    #[test]
    fn understated_fixed_latency_is_caught_with_the_class_named() {
        // Ibex with a contract that understates the load/store clause.
        let mut c = crate::ibex::contract().clone();
        c.clauses[InstrClass::Load.index()].latency = Latency::Fixed(1);
        let mut mk = || -> Box<dyn Core> { Box::new(IbexCore::new(0)) };
        let err = check_core(&mut mk, &c).unwrap_err();
        assert_eq!(err.class, InstrClass::Load);
        assert!(err.to_string().contains("[load]"), "{err}");
    }

    #[test]
    fn hidden_operand_dependence_is_caught() {
        // Declaring Pico's serial shifter as fixed-latency fails on the
        // amount sweep: the dependence is real and must be declared.
        let mut c = crate::pico::contract().clone();
        c.clauses[InstrClass::Shift.index()].latency = Latency::Fixed(2);
        let mut mk = || -> Box<dyn Core> { Box::new(PicoCore::new(0)) };
        let err = check_core(&mut mk, &c).unwrap_err();
        assert_eq!(err.class, InstrClass::Shift);
    }

    #[test]
    fn undeclared_leak_clause_is_caught_both_ways() {
        // Pico declares VarLatencySecret on tainted division; a
        // contract claiming no leak fails on the "undeclared leak"
        // side. Ibex performs no div taint check; a contract claiming
        // it does fails on the "declared but not raised" side.
        let mut c = crate::pico::contract().clone();
        c.clauses[InstrClass::Div.index()].leak_on_tainted = None;
        let mut mk_pico = || -> Box<dyn Core> { Box::new(PicoCore::new(0)) };
        let err = check_core(&mut mk_pico, &c).unwrap_err();
        assert!(err.detail.contains("undeclared leak"), "{err}");

        let mut c = crate::ibex::contract().clone();
        c.clauses[InstrClass::Div.index()].leak_on_tainted = Some(LeakKind::VarLatencySecret);
        let mut mk_ibex = || -> Box<dyn Core> { Box::new(IbexCore::new(0)) };
        let err = check_core(&mut mk_ibex, &c).unwrap_err();
        assert!(err.detail.contains("was not raised"), "{err}");
    }

    #[test]
    fn canonical_text_is_stable_and_revision_sensitive() {
        let a = crate::ibex::contract().canonical();
        assert!(a.contains("core=Ibex"));
        assert!(a.contains("div: latency=operand(dividend-bits base=3)"));
        let mut edited = crate::ibex::contract().clone();
        edited.revision += 1;
        assert_ne!(a, edited.canonical(), "revision bumps must change the hashable text");
        assert_eq!(a, crate::ibex::contract().canonical(), "rendering is deterministic");
    }

    #[test]
    fn latency_evaluation_matches_the_dependence_functions() {
        let div = |d: u32| OpClass::Div { dividend: d };
        let ibex = crate::ibex::contract();
        assert_eq!(ibex.cycles(&div(0)), 3);
        assert_eq!(ibex.cycles(&div(1)), 4);
        assert_eq!(ibex.cycles(&div(0xFFFF_FFFF)), 35);
        let pico = crate::pico::contract();
        assert_eq!(pico.cycles(&shift_op(0, true)), 1);
        assert_eq!(pico.cycles(&shift_op(31, true)), 9);
        assert_eq!(pico.cycles(&OpClass::Mul { a: 1, b: 1 }), 32);
    }

    #[test]
    fn worst_case_costs_dominate_every_operand_value() {
        let ibex = crate::ibex::contract();
        // Div: base 3 + full 32-bit dividend = 35, matching cycles()'s
        // own maximum; plus overhead 0 on Ibex.
        assert_eq!(ibex.worst_cost(InstrClass::Div), 35);
        assert_eq!(ibex.clause(InstrClass::Div).latency.worst_cycles(), 35);
        let pico = crate::pico::contract();
        // Pico charges 2 fetch cycles on every instruction.
        assert_eq!(pico.worst_cost(InstrClass::Shift), 2 + pico.cycles(&shift_op(31, true)));
        for class in InstrClass::ALL {
            for c in [ibex, pico] {
                assert!(c.worst_cost(class) >= c.overhead, "{class}");
                assert!(
                    c.clause(class).latency.worst_cycles() >= 1,
                    "{class}: every instruction takes at least a cycle"
                );
            }
        }
    }

    #[test]
    fn leak_terms_name_the_contract_clause() {
        assert!(leak_term(LeakKind::VarLatencySecret, InstrClass::Div).contains("[div]"));
        assert!(leak_term(LeakKind::AddrSecret, InstrClass::Store).contains("[store]"));
        assert!(leak_term(LeakKind::BranchOnSecret, InstrClass::Branch).contains("branch"));
    }
}
