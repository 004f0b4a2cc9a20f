//! Whole-command state-machine adapters for the littlec pipeline levels.

use std::cell::Cell;
use std::sync::Arc;

use parfait::StateMachine;
use parfait_littlec::ast::Program;
use parfait_littlec::interp::Interp;
use parfait_littlec::ir::IrProgram;
use parfait_littlec::ireval::IrEval;
use parfait_riscv::model::AsmStateMachine;

/// The "App Impl \[Low\*\]" level: `handle` under the reference
/// interpreter, as a whole-command machine over byte buffers.
pub struct InterpMachine<'p> {
    interp: Interp<'p>,
    response_size: usize,
}

impl<'p> InterpMachine<'p> {
    /// Wrap a type-checked program containing `handle`.
    pub fn new(program: &'p Program, response_size: usize) -> Self {
        InterpMachine { interp: Interp::new(program), response_size }
    }
}

impl StateMachine for InterpMachine<'_> {
    type State = Vec<u8>;
    type Command = Vec<u8>;
    type Response = Vec<u8>;

    fn init(&self) -> Vec<u8> {
        Vec::new() // callers must start from an encoded spec state
    }

    fn step(&self, state: &Vec<u8>, cmd: &Vec<u8>) -> (Vec<u8>, Vec<u8>) {
        self.interp
            .step(state, cmd, self.response_size)
            .unwrap_or_else(|e| panic!("interp-level handle failed: {e}"))
    }
}

/// The "App Impl \[C\]" level: `handle` over the lowered IR.
pub struct IrMachine<'p> {
    eval: IrEval<'p>,
    response_size: usize,
}

impl<'p> IrMachine<'p> {
    /// Wrap a lowered IR program containing `handle`.
    pub fn new(ir: &'p IrProgram, response_size: usize) -> Self {
        IrMachine { eval: IrEval::new(ir), response_size }
    }
}

impl StateMachine for IrMachine<'_> {
    type State = Vec<u8>;
    type Command = Vec<u8>;
    type Response = Vec<u8>;

    fn init(&self) -> Vec<u8> {
        Vec::new()
    }

    fn step(&self, state: &Vec<u8>, cmd: &Vec<u8>) -> (Vec<u8>, Vec<u8>) {
        self.eval
            .step(state, cmd, self.response_size)
            .unwrap_or_else(|e| panic!("IR-level handle failed: {e}"))
    }
}

/// The "App Impl \[Asm\]" level: compiled `handle` under the Riscette
/// machine (fig. 8).
pub struct AsmMachine {
    model: Arc<AsmStateMachine>,
    /// Steps that ran `handle`; the model's memo replayed the others.
    runs: Cell<usize>,
}

impl AsmMachine {
    /// Wrap a whole-command assembly model, possibly one shared with
    /// other checkers (whose steps then replay through its memo).
    pub fn new(model: impl Into<Arc<AsmStateMachine>>) -> Self {
        AsmMachine { model: model.into(), runs: Cell::new(0) }
    }

    /// The underlying model.
    pub fn model(&self) -> &Arc<AsmStateMachine> {
        &self.model
    }

    /// How many of this wrapper's steps ran `handle`. Counted here, not
    /// off the model's memo counters, which FPS's spec queries own.
    pub fn runs(&self) -> usize {
        self.runs.get()
    }
}

impl StateMachine for AsmMachine {
    type State = Vec<u8>;
    type Command = Vec<u8>;
    type Response = Vec<u8>;

    fn init(&self) -> Vec<u8> {
        Vec::new()
    }

    fn step(&self, state: &Vec<u8>, cmd: &Vec<u8>) -> (Vec<u8>, Vec<u8>) {
        let (out, ran) = self
            .model
            .step_uncounted(state, cmd)
            .unwrap_or_else(|e| panic!("asm-level handle failed: {e}"));
        self.runs.set(self.runs.get() + usize::from(ran));
        out
    }
}
