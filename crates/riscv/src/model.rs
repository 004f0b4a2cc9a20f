//! The whole-command state-machine interpretation of assembly code.
//!
//! This implements fig. 8 of the paper ("model-Asm"): the invocation of
//! the `handle` function is treated as a single atomic step of a state
//! machine whose state is the byte contents of the state buffer and whose
//! input/output are the command and response buffers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::asm::Program;
use crate::encode::encode;
use crate::isa::{Instr, Reg};
use crate::machine::{Machine, RunError, STACK_TOP};

/// Entries the whole-command memo holds before it is dropped wholesale.
/// States and commands are tens of bytes, so this bounds the memo to a
/// few MB; real query streams repeat a handful of (state, command)
/// pairs, far below the cap.
const MEMO_CAP: usize = 4096;

/// Memo of completed whole-command steps, shared (via `Arc`) by every
/// clone of one [`AsmStateMachine`]. The step function is deterministic
/// — fig. 8 runs a fresh machine from nothing but (state, command) — so
/// a completed result can be replayed for free. Distinct machines
/// (e.g. a tampered program under mutation testing) never share a memo:
/// sharing follows the `Arc`, and the `Arc` follows the instance.
#[derive(Default)]
struct StepMemo {
    map: Mutex<HashMap<StepBytes, StepBytes>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// `(state, command)` as a memo key; `(state', response)` as its value.
type StepBytes = (Vec<u8>, Vec<u8>);

/// A whole-command state machine backed by an assembled `handle` function.
///
/// Each [`AsmStateMachine::step`] spins up a fresh abstract machine,
/// copies the state and command into machine memory, points `a0`/`a1`/`a2`
/// at the state, command, and response buffers per the RISC-V calling
/// convention, runs `handle` to completion, and reads the updated state
/// and the response back out — exactly the pseudocode of fig. 8. The
/// fresh machine is a clone of one template made at construction, so
/// a step neither stores the program again nor looks its decoded text
/// up.
#[derive(Clone)]
pub struct AsmStateMachine {
    program: Program,
    handle_addr: u32,
    /// The program's text and data loaded, `sp` set and `ra` at a
    /// sentinel `ebreak`; its pages are shared with every step's clone.
    template: Machine,
    /// Size in bytes of the state buffer.
    pub state_size: usize,
    /// Size in bytes of the command buffer.
    pub command_size: usize,
    /// Size in bytes of the response buffer.
    pub response_size: usize,
    /// Maximum instructions a single `handle` invocation may retire.
    pub fuel: u64,
    memo: Arc<StepMemo>,
}

impl AsmStateMachine {
    /// Create a model for `program`, whose `handle` symbol implements the
    /// step function.
    ///
    /// Returns `None` if the program has no `handle` symbol.
    pub fn new(
        program: Program,
        state_size: usize,
        command_size: usize,
        response_size: usize,
    ) -> Option<Self> {
        let handle_addr = program.address_of("handle")?;
        let mut template = Machine::with_program(&program);
        // `handle` returns to a sentinel ebreak.
        let sentinel = STACK_TOP.wrapping_add(0x100);
        template.mem.store_u32(sentinel, encode(Instr::Ebreak));
        template.set_reg(Reg::RA, sentinel);
        template.mem.share();
        Some(AsmStateMachine {
            program,
            handle_addr,
            template,
            state_size,
            command_size,
            response_size,
            fuel: 200_000_000,
            memo: Arc::new(StepMemo::default()),
        })
    }

    /// The program backing this model.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Address of the `handle` entry point.
    pub fn handle_addr(&self) -> u32 {
        self.handle_addr
    }

    /// Build the machine poised to execute `handle(state, command, resp)`,
    /// without running it. Returns the machine and the three buffer
    /// pointers. Knox2 uses this to single-step the assembly level during
    /// synchronization.
    pub fn prepare(&self, state: &[u8], command: &[u8]) -> (Machine, u32, u32, u32) {
        assert_eq!(state.len(), self.state_size, "state buffer size");
        assert_eq!(command.len(), self.command_size, "command buffer size");
        let mut m = self.template.clone();
        let state_ptr = m.alloc(self.state_size as u32);
        m.storebytes(state_ptr, state);
        let command_ptr = m.alloc(self.command_size as u32);
        m.storebytes(command_ptr, command);
        let response_ptr = m.alloc(self.response_size as u32);
        m.set_reg(Reg::A0, state_ptr);
        m.set_reg(Reg::A1, command_ptr);
        m.set_reg(Reg::A2, response_ptr);
        m.pc = self.handle_addr;
        (m, state_ptr, command_ptr, response_ptr)
    }

    /// Execute one whole-command step: `(state, command) -> (state', response)`.
    ///
    /// Completed steps are memoized across every clone of this machine:
    /// the step function is a deterministic function of its two inputs,
    /// so an identical query — the checker's sequential oracle and its
    /// parallel legs, or one app verified on two platforms, all replay
    /// the same firmware against the same script — returns the recorded
    /// result without re-interpreting the `handle` call. Only `Ok`
    /// results are recorded; a hit replays a run that once completed
    /// within the fuel budget, so later *lowering* `self.fuel` does not
    /// retroactively turn recorded completions into `OutOfFuel`.
    pub fn step(&self, state: &[u8], command: &[u8]) -> Result<(Vec<u8>, Vec<u8>), RunError> {
        let (out, ran) = self.step_uncounted(state, command)?;
        let counter = if ran { &self.memo.misses } else { &self.memo.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    /// [`step`](Self::step) that leaves the memo's hit/miss counters to
    /// the queries they measure (FPS's spec queries drain them) and
    /// says instead whether it ran `handle` (`false` on a memo hit).
    /// Translation validation steps a machine FPS later queries, and
    /// counts its own runs.
    pub fn step_uncounted(
        &self,
        state: &[u8],
        command: &[u8],
    ) -> Result<(StepBytes, bool), RunError> {
        let key = (state.to_vec(), command.to_vec());
        if let Some(hit) = self.memo.map.lock().unwrap().get(&key) {
            return Ok((hit.clone(), false));
        }
        let (mut m, state_ptr, _command_ptr, response_ptr) = self.prepare(state, command);
        m.run(self.fuel)?;
        let new_state = m.loadbytes(state_ptr, self.state_size);
        let response = m.loadbytes(response_ptr, self.response_size);
        let mut map = self.memo.map.lock().unwrap();
        if map.len() >= MEMO_CAP {
            map.clear();
        }
        map.insert(key, (new_state.clone(), response.clone()));
        Ok(((new_state, response), true))
    }

    /// Drain the whole-command memo's (hits, misses) counters, shared
    /// across clones. Callers with a metrics registry flush these into
    /// it after a run (the crate itself stays dependency-free).
    pub fn take_memo_stats(&self) -> (u64, u64) {
        (self.memo.hits.swap(0, Ordering::Relaxed), self.memo.misses.swap(0, Ordering::Relaxed))
    }

    /// Count the instructions retired by one `handle` invocation.
    ///
    /// Used by timing-oriented checks: at the assembly level there is no
    /// notion of cycles, but a data-dependent instruction *count* is a
    /// strong hint that the circuit level will leak through timing.
    pub fn step_instret(&self, state: &[u8], command: &[u8]) -> Result<u64, RunError> {
        let (mut m, _, _, _) = self.prepare(state, command);
        m.run(self.fuel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    /// A toy handle: state is a 4-byte counter; command byte 0 selects
    /// increment (1) or read (2); response is 4 bytes.
    const TOY: &str = "
        handle:
            lbu t0, 0(a1)       # command tag
            lw t1, 0(a0)        # counter
            li t2, 1
            beq t0, t2, do_inc
            # read: response = counter, state unchanged
            sw t1, 0(a2)
            ret
        do_inc:
            addi t1, t1, 1
            sw t1, 0(a0)
            sw zero, 0(a2)
            ret
    ";

    #[test]
    fn whole_command_step() {
        let p = assemble(TOY).unwrap();
        let sm = AsmStateMachine::new(p, 4, 1, 4).unwrap();
        let s0 = vec![0, 0, 0, 0];
        let (s1, r1) = sm.step(&s0, &[1]).unwrap();
        assert_eq!(s1, vec![1, 0, 0, 0]);
        assert_eq!(r1, vec![0, 0, 0, 0]);
        let (s2, r2) = sm.step(&s1, &[2]).unwrap();
        assert_eq!(s2, s1, "read must not modify state");
        assert_eq!(r2, vec![1, 0, 0, 0]);
    }

    #[test]
    fn steps_are_deterministic_and_isolated() {
        let p = assemble(TOY).unwrap();
        let sm = AsmStateMachine::new(p, 4, 1, 4).unwrap();
        let s = vec![7, 0, 0, 0];
        let a = sm.step(&s, &[2]).unwrap();
        let b = sm.step(&s, &[2]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_handle_symbol() {
        let p = assemble("main: ebreak").unwrap();
        assert!(AsmStateMachine::new(p, 4, 1, 4).is_none());
    }

    #[test]
    fn memo_replays_identical_queries_and_is_shared_by_clones() {
        let p = assemble(TOY).unwrap();
        let sm = AsmStateMachine::new(p, 4, 1, 4).unwrap();
        let s = vec![7, 0, 0, 0];
        let first = sm.step(&s, &[2]).unwrap();
        assert_eq!(sm.take_memo_stats(), (0, 1), "cold query misses");
        let again = sm.step(&s, &[2]).unwrap();
        assert_eq!(again, first, "memo hit is byte-identical");
        // A clone shares the memo (same Arc), so its query hits too.
        let clone = sm.clone();
        let cloned = clone.step(&s, &[2]).unwrap();
        assert_eq!(cloned, first);
        assert_eq!(sm.take_memo_stats(), (2, 0), "hit via original and via clone");
    }

    #[test]
    fn uncounted_steps_share_the_memo_but_not_its_counters() {
        let sm = AsmStateMachine::new(assemble(TOY).unwrap(), 4, 1, 4).unwrap();
        let s = vec![7, 0, 0, 0];
        let (first, ran) = sm.step_uncounted(&s, &[2]).unwrap();
        assert!(ran, "a cold step runs `handle`");
        assert_eq!(sm.step_uncounted(&s, &[2]).unwrap(), (first.clone(), false));
        assert_eq!(sm.take_memo_stats(), (0, 0), "uncounted steps leave the counters alone");
        assert_eq!(sm.step(&s, &[2]).unwrap(), first);
        assert_eq!(sm.take_memo_stats(), (1, 0), "a counted query hits the recorded step");
    }

    #[test]
    fn distinct_machines_never_share_a_memo() {
        // Same source assembled twice: two instances, two memos. A
        // tampered program under mutation testing must never observe
        // the clean instance's recorded steps.
        let a = AsmStateMachine::new(assemble(TOY).unwrap(), 4, 1, 4).unwrap();
        let b = AsmStateMachine::new(assemble(TOY).unwrap(), 4, 1, 4).unwrap();
        let s = vec![0, 0, 0, 0];
        a.step(&s, &[1]).unwrap();
        assert_eq!(a.take_memo_stats(), (0, 1));
        b.step(&s, &[1]).unwrap();
        assert_eq!(b.take_memo_stats(), (0, 1), "b computed its own step");
    }
}
