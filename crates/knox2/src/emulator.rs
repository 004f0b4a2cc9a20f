//! The circuit emulator template (paper §5.3).
//!
//! "The emulator runs a fresh instance of the circuit, with dummy data.
//! The emulator does not have access to the data in the real circuit, in
//! particular the read-write persistent memory, but the structure of the
//! circuit and the code in the ROM is common knowledge. The emulator
//! watches the internal state of its instance of the circuit: when the
//! circuit reaches the commit point of an operation, the emulator reads
//! input data out of its circuit's state and translates it into a
//! spec-level input, makes a query to the specification, and injects the
//! result back into its circuit's state, so that the (future) output
//! behavior of its circuit instance matches that of the real circuit."
//!
//! The four developer-supplied hooks of the template are realized as:
//! (1a) `handle` entry is detected when the core retires the function's
//! first instruction; (1b) the command bytes are read from the circuit
//! RAM at the address in `a1`; (2a) the commit point is the flip of the
//! journal flag word in FRAM; (2b) the spec response is injected into
//! the circuit RAM at the address saved from `a2`.

use parfait_riscv::isa::Reg;
use parfait_rtl::{Circuit, WireIn, WireOut, Word};
use parfait_soc::Soc;

use crate::fps::ByteSpec;

/// Saved injection context between `handle` entry and the commit point.
struct Pending {
    resp_addr: u32,
    resp: Vec<u8>,
}

/// The watch/query/inject protocol's own state, apart from the circuit
/// it watches: the FPS checker runs it over the emulator's SoC, or over
/// the ideal lane of the product world.
struct Watch<'s> {
    spec: &'s dyn ByteSpec,
    handle_addr: u32,
    command_size: usize,
    /// The journal flag as last read.
    prev_flag: u32,
    /// [`Soc::journal_writes`] as of the last flag read: the flag is
    /// read again only after another write reached it.
    seen_writes: u64,
    pending: Option<Pending>,
    /// Seeded template bug (mutation testing, DESIGN.md §12): inject the
    /// spec response rotated by one byte, desynchronizing the ideal
    /// world's wires from the real circuit's.
    desync: bool,
}

/// The emulator: a dummy-state SoC plus the injection state machine.
pub struct CircuitEmulator<'s> {
    /// The emulator's own circuit instance (dummy persistent state).
    pub soc: Soc,
    /// The ideal-world spec state (advances on every query).
    pub spec_state: Vec<u8>,
    /// Number of spec queries made (== handle invocations observed).
    pub queries: u64,
    /// The spec's response for each query, in order. The FPS checker
    /// compares the wire-level response bytes against these, which binds
    /// the circuit's I/O path to the specification (catching, e.g.,
    /// response-encoding bugs in the system software that both circuit
    /// instances would otherwise share).
    pub spec_responses: Vec<Vec<u8>>,
    watch: Watch<'s>,
}

impl<'s> CircuitEmulator<'s> {
    /// Create an emulator around a dummy SoC.
    ///
    /// `dummy_soc` must be built with *public* default state (e.g. the
    /// app's encoded initial state — common knowledge), and
    /// `spec_initial` is the ideal world's actual (secret) spec state.
    pub fn new(
        dummy_soc: Soc,
        spec: &'s dyn ByteSpec,
        spec_initial: Vec<u8>,
        command_size: usize,
    ) -> Self {
        let handle_addr =
            dummy_soc.firmware().address_of("handle").expect("firmware must define `handle`");
        let watch = Watch {
            spec,
            handle_addr,
            command_size,
            prev_flag: dummy_soc.fram_word_of(0, 0),
            seen_writes: dummy_soc.journal_writes(),
            pending: None,
            desync: false,
        };
        CircuitEmulator {
            soc: dummy_soc,
            spec_state: spec_initial,
            queries: 0,
            spec_responses: Vec::new(),
            watch,
        }
    }

    /// Drain the spec's whole-command memo counters (see
    /// [`ByteSpec::take_memo_stats`]); the checker flushes them into
    /// the metrics registry at the end of a run.
    pub fn take_spec_memo_stats(&self) -> (u64, u64) {
        self.watch.spec.take_memo_stats()
    }

    /// Seed the desync bug: every injected response is rotated left by
    /// one byte. The harness uses this to prove the FPS check is not
    /// vacuous — a broken emulator template must make it fail.
    pub fn seed_desync(&mut self) {
        self.watch.desync = true;
    }

    /// Advance the emulator's circuit one cycle, performing the
    /// watch/query/inject protocol.
    pub fn tick(&mut self) {
        self.soc.tick();
        let CircuitEmulator { soc, spec_state, queries, spec_responses, watch } = self;
        watch.run(soc, 0, spec_state, queries, spec_responses);
    }

    /// The watch/query/inject protocol after a cycle of `soc`, over its
    /// world `lane` — the ideal lane when `soc` is the FPS product world.
    pub(crate) fn watch<P: Word>(&mut self, soc: &mut Soc<P>, lane: usize) {
        let CircuitEmulator { spec_state, queries, spec_responses, watch, .. } = self;
        watch.run(soc, lane, spec_state, queries, spec_responses);
    }
}

impl Watch<'_> {
    /// React to the cycle `soc` just ran: the two events are read off
    /// what the SoC recorded in it, the retired pc and the count of
    /// journal-flag writes.
    #[inline]
    fn run<P: Word>(
        &mut self,
        soc: &mut Soc<P>,
        lane: usize,
        spec_state: &mut Vec<u8>,
        queries: &mut u64,
        spec_responses: &mut Vec<Vec<u8>>,
    ) {
        // (1) handle entry: the first instruction of handle retired.
        if soc.retired_pc() == Some(self.handle_addr) {
            let regs = soc.core.regs();
            let cmd_addr = regs[Reg::A1.0 as usize].lane(lane).v;
            let resp_addr = regs[Reg::A2.0 as usize].lane(lane).v;
            let cmd = soc.ram_bytes_of(lane, cmd_addr, self.command_size);
            // Query the specification (ideal-world state advances).
            let (new_state, resp) = self.spec.step(spec_state, &cmd);
            *spec_state = new_state;
            *queries += 1;
            spec_responses.push(resp.clone());
            self.pending = Some(Pending { resp_addr, resp });
        }
        // (2) commit point: the journal flag flipped. It can only have
        // flipped if a write reached it this cycle.
        if soc.journal_writes() == self.seen_writes {
            return;
        }
        self.seen_writes = soc.journal_writes();
        let flag = soc.fram_word_of(lane, 0);
        if flag != self.prev_flag {
            self.prev_flag = flag;
            if let Some(mut p) = self.pending.take() {
                if self.desync && !p.resp.is_empty() {
                    p.resp.rotate_left(1);
                }
                // Inject the spec response over the dummy-computed one.
                soc.ram_store_of(lane, p.resp_addr, &p.resp, false);
            }
        }
    }
}

impl Circuit for CircuitEmulator<'_> {
    fn set_input(&mut self, input: WireIn) {
        self.soc.set_input(input);
    }

    fn get_output(&self) -> WireOut {
        self.soc.get_output()
    }

    fn tick(&mut self) {
        CircuitEmulator::tick(self);
    }

    fn cycles(&self) -> u64 {
        self.soc.cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfait_cores::IbexCore;
    use parfait_riscv::asm::{assemble_with, Layout};
    use parfait_soc::{host, Firmware, RAM_BASE, ROM_BASE};

    /// A minimal fig. 1 firmware in raw assembly, following the buffer
    /// ABI the emulator template watches: at `handle` entry, a0/a1/a2
    /// point at the state/command/response buffers in RAM. State is one
    /// byte, journaled in FRAM (flag@0, slots@4/@8); commands and
    /// responses are one byte; handle computes state+cmd.
    const MINI: &str = "
        _start:
            li sp, 0x2003ff00
        main_loop:
            li s0, 0x10000000
            # read_command -> cmd buffer
        rx_wait:
            lw t0, 0(s0)
            beqz t0, rx_wait
            lw t1, 4(s0)
            li s4, 0x20000110
            sb t1, 0(s4)
            # load_state (journaled) -> state buffer
            li s2, 0x30000000
            lw t0, 0(s2)
            li s3, 0x30000004
            beqz t0, ls_done
            li s3, 0x30000008
        ls_done:
            lbu t2, 0(s3)
            li s5, 0x20000100
            sb t2, 0(s5)
            # handle(state, cmd, resp)
            li a0, 0x20000100
            li a1, 0x20000110
            li a2, 0x20000120
            call handle
            # store_state: write inactive slot, flip the flag
            li t5, 0x20000100
            lbu t4, 0(t5)
            li t1, 0x30000008
            lw t0, 0(s2)
            beqz t0, ss_pick
            li t1, 0x30000004
        ss_pick:
            sb t4, 0(t1)
            lw t0, 0(s2)
            li t3, 1
            sub t0, t3, t0
            sw t0, 0(s2)
            # write_response from the resp buffer
            li t5, 0x20000120
            lbu t4, 0(t5)
        tx_wait:
            lw t0, 8(s0)
            beqz t0, tx_wait
            sw t4, 12(s0)
            j main_loop
        handle:
            lbu t0, 0(a0)
            lbu t1, 0(a1)
            add t0, t0, t1
            andi t0, t0, 0xff
            sb t0, 0(a0)
            sb t0, 0(a2)
            ret
    ";

    struct MiniSpec;

    impl crate::fps::ByteSpec for MiniSpec {
        fn step(&self, state: &[u8], cmd: &[u8]) -> (Vec<u8>, Vec<u8>) {
            let s = state[0].wrapping_add(cmd[0]);
            (vec![s], vec![s])
        }
    }

    fn firmware() -> Firmware {
        let p = assemble_with(MINI, Layout { text_base: ROM_BASE, data_base: RAM_BASE }).unwrap();
        Firmware::from_program(&p)
    }

    fn fram(state: u8) -> Vec<u8> {
        vec![0, 0, 0, 0, state, 0, 0, 0, state, 0, 0, 0]
    }

    #[test]
    fn emulator_injects_spec_responses() {
        // Dummy circuit state 0; ideal spec state 40 (the secret).
        let dummy = Soc::new(Box::new(IbexCore::new(0)), firmware(), &fram(0));
        let spec = MiniSpec;
        let mut emu = CircuitEmulator::new(dummy, &spec, vec![40], 1);
        host::send_byte(&mut emu, 2, 100_000).unwrap();
        let b = host::recv_byte(&mut emu, 100_000).unwrap();
        // The emulator's circuit computed 0+2 on dummy data, but the
        // injected spec response is 40+2.
        assert_eq!(b, 42);
        assert_eq!(emu.queries, 1);
        assert_eq!(emu.spec_state, vec![42]);
        assert_eq!(emu.spec_responses, vec![vec![42]]);
        // Next command continues from the advanced spec state.
        host::send_byte(&mut emu, 1, 100_000).unwrap();
        assert_eq!(host::recv_byte(&mut emu, 100_000).unwrap(), 43);
    }

    #[test]
    fn emulator_circuit_matches_real_circuit_exactly() {
        // The real device with secret 40 and the emulator with dummy 0
        // must produce identical wire traces — the FPS property at the
        // smallest possible scale.
        let mut real = Soc::new(Box::new(IbexCore::new(0)), firmware(), &fram(40));
        real.fram.set_taint(0, 4, false); // public journal flag
        let dummy = Soc::new(Box::new(IbexCore::new(0)), firmware(), &fram(0));
        let spec = MiniSpec;
        let mut emu = CircuitEmulator::new(dummy, &spec, vec![40], 1);
        for byte in [2u8, 1, 0xFF] {
            host::send_byte(&mut real, byte, 100_000).unwrap();
            host::send_byte(&mut emu, byte, 100_000).unwrap();
            let a = host::recv_byte(&mut real, 100_000).unwrap();
            let b = host::recv_byte(&mut emu, 100_000).unwrap();
            assert_eq!(a, b, "cmd {byte}");
        }
    }
}
