//! parfait-soc — the HSM System-on-a-Chip.
//!
//! This assembles a complete SoC in the shape of the paper's hardware
//! platform (§7.1): a CPU core (Ibex-like or PicoRV32-like), a ROM
//! holding the firmware, a RAM, a ferroelectric RAM (FRAM) as persistent
//! memory, and a byte-parallel ready/valid I/O port (the wire-level
//! abstraction of the paper's 4-wire UART with flow control). Aside from
//! the CPU, these peripherals correspond to the "500 lines of Verilog"
//! of the paper's platform.
//!
//! The SoC implements [`parfait_rtl::Circuit`]: the adversary interface
//! is exactly `set_input` / `get_output` / `tick` over the I/O wires,
//! and the circuit-level state machine of Table 1 is the SoC's registers
//! and memories under the cycle step.
//!
//! # Memory map
//!
//! | Region | Base        | Size    |
//! |--------|-------------|---------|
//! | ROM    | 0x0000_0000 | 256 KiB |
//! | I/O    | 0x1000_0000 | 16 B    |
//! | RAM    | 0x2000_0000 | 256 KiB |
//! | FRAM   | 0x3000_0000 | 8 KiB   |
//!
//! I/O registers: `+0` RX_STATUS (1 = byte available), `+4` RX_DATA
//! (read pops), `+8` TX_STATUS (1 = space available), `+12` TX_DATA
//! (write pushes).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::Arc;

use parfait_cores::{unzip_core, zip_cores, Core, Fault, MemIf, Step};
use parfait_riscv::asm::Program;
use parfait_riscv::predecode::DecodeCache;
use parfait_rtl::{Circuit, Fifo, Pair, TaintMem, WireIn, WireOut, Word, W};

pub mod host;

/// ROM base address.
pub const ROM_BASE: u32 = 0x0000_0000;
/// ROM size in bytes.
pub const ROM_SIZE: u32 = 256 * 1024;
/// I/O base address.
pub const IO_BASE: u32 = 0x1000_0000;
/// RAM base address.
pub const RAM_BASE: u32 = 0x2000_0000;
/// RAM size in bytes.
pub const RAM_SIZE: u32 = 256 * 1024;
/// FRAM (persistent memory) base address.
pub const FRAM_BASE: u32 = 0x3000_0000;
/// FRAM size in bytes.
pub const FRAM_SIZE: u32 = 8 * 1024;
/// The lowest address the stack may grow down to: the boot shim parks
/// `sp` near the top of RAM and the upper half of RAM is reserved for
/// the stack. The bus watches stores into this region so an FPS run
/// can report the observed stack high-water mark, and the `bound`
/// pipeline stage proves the certified worst case stays above it.
pub const STACK_FLOOR: u32 = RAM_BASE + RAM_SIZE / 2;

/// RX status register address.
pub const IO_RX_STATUS: u32 = IO_BASE;
/// RX data register address (read pops the FIFO).
pub const IO_RX_DATA: u32 = IO_BASE + 4;
/// TX status register address.
pub const IO_TX_STATUS: u32 = IO_BASE + 8;
/// TX data register address (write pushes into the FIFO).
pub const IO_TX_DATA: u32 = IO_BASE + 12;

/// A deliberately seeded SoC/peripheral bug, used by the
/// `parfait-adversary` mutation harness (DESIGN.md §12). `None` (the
/// only value production code ever passes) leaves the SoC bit-for-bit
/// identical to the unseeded one; a seed survives [`Soc::power_cycle`],
/// like a silicon bug survives power loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeededBug {
    /// The FRAM write port silently drops stores to the journal flag
    /// word (offset 0), so a completed command never commits its state.
    DropJournalWrite,
    /// The TX ready/valid handshake deasserts `valid` one transfer too
    /// late, so every byte the firmware sends is committed to the wire
    /// FIFO twice.
    TxDoubleCommit,
}

/// A linked firmware image: ROM text, initial RAM data, symbols.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Firmware {
    /// The text image placed at [`ROM_BASE`].
    pub rom: Vec<u8>,
    /// The data image placed at [`RAM_BASE`] (modeling FPGA-initialized
    /// block RAM).
    pub ram_init: Vec<u8>,
    /// Symbol table (label → absolute address).
    pub symbols: HashMap<String, u32>,
}

impl Firmware {
    /// Build firmware from an assembled program. The program must have
    /// been assembled with `text_base = ROM_BASE` and
    /// `data_base = RAM_BASE`.
    pub fn from_program(p: &Program) -> Firmware {
        assert_eq!(p.text_base, ROM_BASE, "firmware text must be at the ROM base");
        assert_eq!(p.data_base, RAM_BASE, "firmware data must be at the RAM base");
        Firmware { rom: p.text_bytes(), ram_init: p.data.clone(), symbols: p.symbols.clone() }
    }

    /// Address of a symbol.
    pub fn address_of(&self, sym: &str) -> Option<u32> {
        self.symbols.get(sym).copied()
    }
}

/// The complete HSM SoC, over the word type of the world(s) it
/// simulates: `Soc` is one world; `Soc<Pair>` is the FPS checker's
/// product of the real and ideal worlds, one control over paired data
/// (DESIGN.md §8).
///
/// The SoC is `Clone`: a snapshot is cheap because the read-only parts
/// (ROM image, firmware) are behind `Arc` and everything else is plain
/// data. The crash-safety sweep replays every power-failure cut point
/// from one mid-command snapshot.
#[derive(Clone)]
pub struct Soc<P: Word = W> {
    /// The CPU core.
    pub core: Box<dyn Core<P>>,
    /// Firmware ROM (read-only, public, shared between snapshots and
    /// between the worlds of a product).
    pub rom: Arc<TaintMem>,
    /// Working RAM.
    pub ram: TaintMem<P>,
    /// Persistent memory; its contents are tainted (secret).
    pub fram: TaintMem<P>,
    /// Host → device FIFO.
    pub rx_fifo: Fifo<P>,
    /// Device → host FIFO.
    pub tx_fifo: Fifo<P>,
    /// A bus access outside any mapped region.
    pub bus_fault: Option<u32>,
    /// Lowest address stored to inside the stack region
    /// ([`STACK_FLOOR`]`..`[`RAM_BASE`]` + `[`RAM_SIZE`]) since
    /// construction; `u32::MAX` when the stack was never written.
    /// Survives power cycles — it is a whole-run high-water mark.
    stack_min_store: u32,
    /// Seeded hardware bug (mutation testing only).
    seeded: Option<SeededBug>,
    firmware: Arc<Firmware>,
    input: WireIn,
    cycles: u64,
    instructions_retired: u64,
    /// The pc of the instruction retired in the last `tick`, if any.
    retired_pc: Option<u32>,
    /// Writes that reached the FRAM's journal flag word (offset 0).
    journal_writes: u64,
    /// Output wires as of the end of the last `tick` (cached so the
    /// host-protocol and checker hot paths read a field instead of
    /// re-deriving the wires from FIFO state several times per cycle).
    /// In a product SoC these are lane 0's (the real world's) wires.
    output: WireOut,
}

struct Bus<'a, P: Word> {
    rom: &'a TaintMem,
    ram: &'a mut TaintMem<P>,
    fram: &'a mut TaintMem<P>,
    rx_fifo: &'a mut Fifo<P>,
    tx_fifo: &'a mut Fifo<P>,
    bus_fault: &'a mut Option<u32>,
    stack_min_store: &'a mut u32,
    journal_writes: &'a mut u64,
    seeded: Option<SeededBug>,
}

impl<P: Word> MemIf<P> for Bus<'_, P> {
    fn fetch(&mut self, addr: u32) -> u32 {
        if (ROM_BASE..ROM_BASE + ROM_SIZE).contains(&addr) {
            self.rom.read_word(addr - ROM_BASE).v
        } else {
            *self.bus_fault = Some(addr);
            0
        }
    }

    fn read(&mut self, addr: u32) -> P {
        let public = |v: u32| P::splat(W::pub32(v));
        match addr {
            a if (ROM_BASE..ROM_BASE + ROM_SIZE).contains(&a) => {
                P::splat(self.rom.read_word(a - ROM_BASE))
            }
            a if (RAM_BASE..RAM_BASE + RAM_SIZE).contains(&a) => self.ram.read_word(a - RAM_BASE),
            a if (FRAM_BASE..FRAM_BASE + FRAM_SIZE).contains(&a) => {
                self.fram.read_word(a - FRAM_BASE)
            }
            IO_RX_STATUS => public(self.rx_fifo.can_pop() as u32),
            IO_RX_DATA => self.rx_fifo.pop().unwrap_or(public(0)),
            IO_TX_STATUS => public(self.tx_fifo.can_push() as u32),
            a => {
                *self.bus_fault = Some(a);
                public(0)
            }
        }
    }

    fn write(&mut self, addr: u32, val: P, mask: u8) {
        match addr {
            a if (RAM_BASE..RAM_BASE + RAM_SIZE).contains(&a) => {
                if a >= STACK_FLOOR && a < *self.stack_min_store {
                    *self.stack_min_store = a;
                }
                self.ram.write_word(a - RAM_BASE, val, mask)
            }
            a if (FRAM_BASE..FRAM_BASE + FRAM_SIZE).contains(&a) => {
                if a - FRAM_BASE < 4 {
                    if self.seeded == Some(SeededBug::DropJournalWrite) {
                        return; // the journal flag word never reaches the FRAM
                    }
                    *self.journal_writes += 1;
                }
                self.fram.write_word(a - FRAM_BASE, val, mask)
            }
            IO_TX_DATA => {
                // Byte-wide register; lane 0 carries the data.
                let byte = val.map_lanes(|w| W { v: w.v & 0xFF, t: w.t });
                self.tx_fifo.push(byte);
                if self.seeded == Some(SeededBug::TxDoubleCommit) {
                    self.tx_fifo.push(byte);
                }
            }
            a if (ROM_BASE..ROM_BASE + ROM_SIZE).contains(&a) => {
                // Writes to ROM are silently ignored (as in hardware).
            }
            a => {
                *self.bus_fault = Some(a);
            }
        }
    }
}

impl Soc {
    /// Build an SoC with the given core, firmware, and persistent image.
    ///
    /// The FRAM contents are marked **tainted**: they are the HSM's
    /// secrets, and the taint tracker reports any flow of these values
    /// into control state.
    pub fn new(core: Box<dyn Core>, firmware: Firmware, fram_image: &[u8]) -> Soc {
        let cache = DecodeCache::shared(ROM_BASE, &firmware.rom);
        Soc::new_with_decode_cache(core, firmware, fram_image, Some(cache))
    }

    /// [`Soc::new`] with an explicit decode cache, or `None` for the
    /// uncached bus fetch + live decode path. The differential tests use
    /// this to run cached and uncached worlds side by side in one
    /// process.
    pub fn new_with_decode_cache(
        mut core: Box<dyn Core>,
        firmware: Firmware,
        fram_image: &[u8],
        cache: Option<Arc<DecodeCache>>,
    ) -> Soc {
        assert!(fram_image.len() <= FRAM_SIZE as usize, "FRAM image too large");
        if let Some(cache) = cache {
            core.attach_decode_cache(cache);
        }
        let rom = Arc::new(TaintMem::rom(&firmware.rom, ROM_SIZE as usize));
        let mut ram = TaintMem::new(RAM_SIZE as usize);
        ram.load_bytes(0, &firmware.ram_init, false);
        let mut fram = TaintMem::new(FRAM_SIZE as usize);
        fram.load_bytes(0, fram_image, true);
        let mut soc = Soc {
            core,
            rom,
            ram,
            fram,
            rx_fifo: Fifo::new(16),
            tx_fifo: Fifo::new(16),
            bus_fault: None,
            stack_min_store: u32::MAX,
            seeded: None,
            firmware: Arc::new(firmware),
            input: WireIn::default(),
            cycles: 0,
            instructions_retired: 0,
            retired_pc: None,
            journal_writes: 0,
            output: WireOut::default(),
        };
        soc.refresh_output();
        soc
    }

    /// Dump `len` bytes of FRAM starting at `offset` (values only).
    pub fn fram_bytes(&self, offset: usize, len: usize) -> Vec<u8> {
        self.fram.dump_bytes(offset, len)
    }

    /// Power-cycle: reset the core and reinitialize RAM from the
    /// firmware image; FRAM (persistent state) is retained.
    pub fn power_cycle(&mut self) {
        self.core.reset(ROM_BASE);
        let mut ram = TaintMem::new(RAM_SIZE as usize);
        ram.load_bytes(0, &self.firmware.ram_init, false);
        self.ram = ram;
        self.rx_fifo = Fifo::new(16);
        self.tx_fifo = Fifo::new(16);
        self.input = WireIn::default();
        self.bus_fault = None;
        self.refresh_output();
    }
}

impl Soc<Pair> {
    /// The real and ideal worlds' SoCs as one product SoC (real in lane
    /// 0), or `None` — with both left untouched — when they differ in
    /// anything single: firmware, seeded bug, core model or control
    /// state, FIFO occupancy, counters, wires or bus state. The product
    /// takes both worlds' memories (their arrays move, they are not
    /// copied); [`Soc::unzip`] gives them back.
    pub fn zip(real: &mut Soc, ideal: &mut Soc) -> Option<Soc<Pair>> {
        let single = |s: &Soc| {
            let shape = |m: &TaintMem| (m.len_bytes(), m.writable, m.lane(0).len());
            (
                (s.bus_fault, s.stack_min_store, s.seeded, s.input),
                (s.cycles, s.instructions_retired, s.retired_pc, s.journal_writes),
                (s.output.rx_ready, s.output.tx_valid),
                (shape(&s.ram), shape(&s.fram)),
            )
        };
        if single(real) != single(ideal)
            || !(Arc::ptr_eq(&real.firmware, &ideal.firmware) || real.firmware == ideal.firmware)
            || !(Arc::ptr_eq(&real.rom, &ideal.rom) || real.rom.lane(0) == ideal.rom.lane(0))
        {
            return None;
        }
        let core = zip_cores(&*real.core, &*ideal.core)?;
        let rx_fifo = Fifo::zip(&real.rx_fifo, &ideal.rx_fifo)?;
        let tx_fifo = Fifo::zip(&real.tx_fifo, &ideal.tx_fifo)?;
        let take = |m: &mut TaintMem| std::mem::replace(m, TaintMem::new(0));
        let ram = TaintMem::zip(take(&mut real.ram), take(&mut ideal.ram));
        let fram = TaintMem::zip(take(&mut real.fram), take(&mut ideal.fram));
        Some(Soc {
            core,
            rom: Arc::clone(&real.rom),
            ram,
            fram,
            rx_fifo,
            tx_fifo,
            bus_fault: real.bus_fault,
            stack_min_store: real.stack_min_store,
            seeded: real.seeded,
            firmware: Arc::clone(&real.firmware),
            input: real.input,
            cycles: real.cycles,
            instructions_retired: real.instructions_retired,
            retired_pc: real.retired_pc,
            journal_writes: real.journal_writes,
            output: real.output,
        })
    }

    /// Give each world its SoC back, as it is now: the memories
    /// [`Soc::zip`] took, and every other part split from this product.
    pub fn unzip(self, real: &mut Soc, ideal: &mut Soc) {
        let wires = [self.wires(0), self.wires(1)];
        let (real_core, ideal_core) = unzip_core(&*self.core);
        let (real_rx, ideal_rx) = self.rx_fifo.unzip();
        let (real_tx, ideal_tx) = self.tx_fifo.unzip();
        let (real_ram, ideal_ram) = self.ram.unzip();
        let (real_fram, ideal_fram) = self.fram.unzip();
        for (soc, core, ram, fram, rx_fifo, tx_fifo, lane) in [
            (&mut *real, real_core, real_ram, real_fram, real_rx, real_tx, 0),
            (&mut *ideal, ideal_core, ideal_ram, ideal_fram, ideal_rx, ideal_tx, 1),
        ] {
            *soc = Soc {
                core,
                rom: Arc::clone(&self.rom),
                ram,
                fram,
                rx_fifo,
                tx_fifo,
                bus_fault: self.bus_fault,
                stack_min_store: self.stack_min_store,
                seeded: self.seeded,
                firmware: Arc::clone(&self.firmware),
                input: self.input,
                cycles: self.cycles,
                instructions_retired: self.instructions_retired,
                retired_pc: self.retired_pc,
                journal_writes: self.journal_writes,
                output: wires[lane],
            };
        }
    }
}

impl<P: Word> Soc<P> {
    /// Seed a deliberate hardware bug (see [`SeededBug`]). Mutation
    /// testing only; the seed survives power cycles.
    pub fn seed_bug(&mut self, bug: SeededBug) {
        self.seeded = Some(bug);
    }

    /// Recompute the cached output wires from the FIFO state.
    fn refresh_output(&mut self) {
        let tx = self.tx_fifo.peek().map(|w| w.lane(0));
        self.set_output(WireOut {
            rx_ready: self.rx_fifo.can_push(),
            tx_valid: tx.is_some(),
            tx_data: tx.map(|w| w.v as u8).unwrap_or(0),
            tx_taint: tx.map(|w| w.t).unwrap_or(false),
        });
    }

    /// Cache the output wires, writing only when they change: the host
    /// reads them back every cycle as one word, which a fresh write of
    /// their four bytes would stall.
    #[inline]
    fn set_output(&mut self, wires: WireOut) {
        if self.output != wires {
            self.output = wires;
        }
    }

    /// The output wires of world `lane` (0 for a single world). The
    /// handshake wires are shared; only the data byte is per world.
    #[inline]
    pub fn wires(&self, lane: usize) -> WireOut {
        if lane == 0 || !self.output.tx_valid {
            return self.output;
        }
        let w = self.tx_fifo.peek().map_or(W::default(), |p| p.lane(lane));
        WireOut { tx_data: w.v as u8, tx_taint: w.t, ..self.output }
    }

    /// Drive the input wires for the upcoming cycle (both worlds of a
    /// product see the same wires).
    pub fn drive(&mut self, input: WireIn) {
        self.input = input;
    }

    /// Read world `lane`'s FRAM word at byte `offset` (values only).
    pub fn fram_word_of(&self, lane: usize, offset: u32) -> u32 {
        self.fram.read_word(offset).lane(lane).v
    }

    /// Read `len` bytes of world `lane`'s RAM at an absolute address.
    pub fn ram_bytes_of(&self, lane: usize, addr: u32, len: usize) -> Vec<u8> {
        assert!(addr >= RAM_BASE);
        self.ram.dump_lane(lane, (addr - RAM_BASE) as usize, len)
    }

    /// Write bytes into world `lane`'s RAM at an absolute address with
    /// given taint.
    pub fn ram_store_of(&mut self, lane: usize, addr: u32, bytes: &[u8], taint: bool) {
        assert!(addr >= RAM_BASE);
        self.ram.load_lane(lane, (addr - RAM_BASE) as usize, bytes, taint);
    }

    /// The pc of the instruction the core retired in the last cycle.
    pub fn retired_pc(&self) -> Option<u32> {
        self.retired_pc
    }

    /// How many writes have reached the FRAM's journal flag word (offset
    /// 0) since construction: the flag can only have changed if this
    /// moved.
    pub fn journal_writes(&self) -> u64 {
        self.journal_writes
    }

    /// How many instructions the core has retired since construction
    /// (power cycles do not reset this; it tracks total simulation
    /// work, the denominator of instructions-per-cycle telemetry).
    pub fn instructions_retired(&self) -> u64 {
        self.instructions_retired
    }

    /// The firmware loaded in this SoC.
    pub fn firmware(&self) -> &Firmware {
        &self.firmware
    }

    /// Drain the core's decode-cache hit/miss counters accumulated
    /// since the last drain (both zero when no cache is attached).
    pub fn take_decode_stats(&mut self) -> (u64, u64) {
        self.core.take_decode_stats()
    }

    /// The observed stack high-water mark: the lowest address the core
    /// stored to inside the stack region (at or above [`STACK_FLOOR`]),
    /// or `None` if the stack was never written. Monotone over the
    /// SoC's whole life, including across power cycles.
    pub fn stack_high_water(&self) -> Option<u32> {
        (self.stack_min_store != u32::MAX).then_some(self.stack_min_store)
    }

    /// Any fatal condition: a core fault or a bus fault.
    pub fn fault(&self) -> Option<String> {
        if let Some(f) = self.core.fault() {
            return Some(match f {
                Fault::Illegal { pc, word } => {
                    format!("illegal instruction {word:#010x} at pc={pc:#010x}")
                }
                Fault::Misaligned { pc, addr } => {
                    format!("misaligned access to {addr:#010x} at pc={pc:#010x}")
                }
                Fault::Env { pc } => format!("ecall/ebreak at pc={pc:#010x}"),
            });
        }
        self.bus_fault.map(|a| format!("bus fault at address {a:#010x}"))
    }

    /// One clock cycle of the SoC: host handshakes, then one core step.
    /// A product SoC's worlds may disagree on the cycle's control (a
    /// branch, an address or a latency): then nothing changes and this
    /// returns false, and the worlds must be unzipped and stepped apart
    /// from the start of this cycle. A single world always steps.
    #[inline]
    pub fn try_tick(&mut self) -> bool {
        self.cycles += 1;
        // Host-side handshakes commit at the clock edge.
        let host_idle = !self.input.rx_valid && !self.input.tx_ready;
        // What the handshakes change, kept while a product core may still
        // refuse the cycle.
        let before = (P::LANES > 1 && !host_idle)
            .then(|| (self.input, self.rx_fifo.clone(), self.tx_fifo.clone()));
        if self.input.rx_valid && self.rx_fifo.can_push() {
            self.rx_fifo.push(P::splat(W::pub32(self.input.rx_data as u32)));
            // A transferred byte is consumed; the host must re-assert
            // rx_valid for the next byte.
            self.input.rx_valid = false;
        }
        if self.input.tx_ready && self.tx_fifo.can_pop() {
            self.tx_fifo.pop();
            self.input.tx_ready = false;
        }
        // One CPU cycle.
        let mut bus = Bus {
            rom: &self.rom,
            ram: &mut self.ram,
            fram: &mut self.fram,
            rx_fifo: &mut self.rx_fifo,
            tx_fifo: &mut self.tx_fifo,
            bus_fault: &mut self.bus_fault,
            stack_min_store: &mut self.stack_min_store,
            journal_writes: &mut self.journal_writes,
            seeded: self.seeded,
        };
        let Step::Ran(retired) = self.core.step(&mut bus) else {
            self.cycles -= 1;
            if let Some((input, rx_fifo, tx_fifo)) = before {
                (self.input, self.rx_fifo, self.tx_fifo) = (input, rx_fifo, tx_fifo);
            }
            return false;
        };
        self.retired_pc = retired.map(|(_, pc)| pc);
        if self.retired_pc.is_some() {
            self.instructions_retired += 1;
        }
        // Fast idle path: with no host activity and both FIFOs empty
        // after the core stepped, the wires are pinned at the idle
        // pattern (ready to receive, nothing to send) — skip the
        // reconstruction.
        if host_idle && self.rx_fifo.is_empty() && self.tx_fifo.is_empty() {
            self.set_output(WireOut {
                rx_ready: true,
                tx_valid: false,
                tx_data: 0,
                tx_taint: false,
            });
        } else {
            self.refresh_output();
        }
        true
    }
}

impl Circuit for Soc {
    fn set_input(&mut self, input: WireIn) {
        self.drive(input);
    }

    fn get_output(&self) -> WireOut {
        self.output
    }

    fn tick(&mut self) {
        let stepped = self.try_tick();
        debug_assert!(stepped, "a single-world core never refuses a cycle");
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfait_cores::IbexCore;
    use parfait_riscv::asm::{assemble_with, Layout};

    fn firmware(src: &str) -> Firmware {
        let p = assemble_with(src, Layout { text_base: ROM_BASE, data_base: RAM_BASE }).unwrap();
        Firmware::from_program(&p)
    }

    /// Echo firmware: forever { wait rx; byte = rx; wait tx; tx = byte+1 }.
    const ECHO: &str = "
        start:
            li s0, 0x10000000   # IO base
        loop:
            lw t0, 0(s0)        # rx status
            beqz t0, loop
            lw t1, 4(s0)        # rx data
            addi t1, t1, 1
        wait_tx:
            lw t0, 8(s0)        # tx status
            beqz t0, wait_tx
            sw t1, 12(s0)       # tx data
            j loop
    ";

    #[test]
    fn echo_firmware_roundtrip() {
        let fw = firmware(ECHO);
        let mut soc = Soc::new(Box::new(IbexCore::new(ROM_BASE)), fw, &[]);
        host::send_byte(&mut soc, 0x41, 1000).unwrap();
        let b = host::recv_byte(&mut soc, 1000).unwrap();
        assert_eq!(b, 0x42);
        assert!(soc.fault().is_none());
        // And again, to make sure the loop keeps running.
        host::send_byte(&mut soc, 0x7F, 1000).unwrap();
        assert_eq!(host::recv_byte(&mut soc, 1000).unwrap(), 0x80);
    }

    #[test]
    fn fram_is_tainted_and_persistent() {
        let fw = firmware(
            "
            start:
                li s0, 0x30000000   # FRAM
                lw t0, 0(s0)        # load secret
                addi t0, t0, 1
                sw t0, 0(s0)        # store back
            spin:
                j spin
            ",
        );
        let mut soc = Soc::new(Box::new(IbexCore::new(ROM_BASE)), fw, &[5, 0, 0, 0]);
        for _ in 0..50 {
            soc.tick();
        }
        assert_eq!(soc.fram_bytes(0, 4), vec![6, 0, 0, 0]);
        assert!(soc.fram.any_tainted(0, 4), "secret derived data stays tainted");
        assert!(soc.fault().is_none());
        // Persistence across power cycles.
        soc.power_cycle();
        for _ in 0..50 {
            soc.tick();
        }
        assert_eq!(soc.fram_bytes(0, 4), vec![7, 0, 0, 0]);
    }

    #[test]
    fn secret_to_tx_is_taint_tracked() {
        // Firmware leaks the secret to the TX port; the output byte must
        // carry taint (data output is IPR-checked, taint is diagnostic).
        let fw = firmware(
            "
            start:
                li s0, 0x30000000
                lw t0, 0(s0)
                li s1, 0x10000000
                sw t0, 12(s1)
            spin:
                j spin
            ",
        );
        let mut soc = Soc::new(Box::new(IbexCore::new(ROM_BASE)), fw, &[0xAB, 0, 0, 0]);
        for _ in 0..50 {
            soc.tick();
        }
        let out = soc.get_output();
        assert!(out.tx_valid);
        assert_eq!(out.tx_data, 0xAB);
        assert!(out.tx_taint);
    }

    #[test]
    fn rom_past_the_image_reads_zero_faults_on_fetch_and_ignores_writes() {
        // The image is a few words; 0x100 is inside the ROM but past it.
        let fw = firmware(
            "
            start:
                li t0, 0x100
                lw t1, 0(t0)        # past the image: zero
                li t2, -1
                sw t2, 0(zero)      # into the image: ignored
                sw t2, 0(t0)        # past the image: ignored
                lw t3, 0(zero)      # the image's first word, unchanged
                lw t4, 0(t0)        # still zero
                jr t0               # fetch past the image
            ",
        );
        let first_word = u32::from_le_bytes(fw.rom[..4].try_into().unwrap());
        let image_words = fw.rom.len().div_ceil(4);
        let mut soc = Soc::new(Box::new(IbexCore::new(ROM_BASE)), fw, &[]);
        assert_eq!(soc.rom.lane(0).len(), image_words, "the ROM stores its image only");
        assert_eq!(soc.rom.len_bytes(), ROM_SIZE as usize);
        for _ in 0..40 {
            soc.tick();
        }
        let r = soc.core.regs();
        assert_eq!(r[6], W::pub32(0), "a load past the image reads untainted zero");
        assert_eq!(r[28].v, first_word, "a store into ROM is ignored");
        assert_eq!(r[29], W::pub32(0), "a store past the image is ignored");
        assert_eq!(soc.fault().unwrap(), "illegal instruction 0x00000000 at pc=0x00000100");
    }

    #[test]
    fn bus_fault_detected() {
        let fw = firmware(
            "
            start:
                li t0, 0x50000000
                lw t1, 0(t0)
            spin:
                j spin
            ",
        );
        let mut soc = Soc::new(Box::new(IbexCore::new(ROM_BASE)), fw, &[]);
        for _ in 0..20 {
            soc.tick();
        }
        assert!(soc.fault().unwrap().contains("bus fault"));
    }

    #[test]
    fn data_section_initialized() {
        let fw = firmware(
            "
            .text
            start:
                la t0, value
                lw t1, 0(t0)
                li s1, 0x10000000
            wait_tx:
                lw t0, 8(s1)
                beqz t0, wait_tx
                sw t1, 12(s1)
            spin:
                j spin
            .data
            value: .word 0x77
            ",
        );
        let mut soc = Soc::new(Box::new(IbexCore::new(ROM_BASE)), fw, &[]);
        let b = host::recv_byte(&mut soc, 1000).unwrap();
        assert_eq!(b, 0x77);
    }
}

#[cfg(test)]
mod backpressure_tests {
    use super::*;
    use parfait_cores::IbexCore;
    use parfait_riscv::asm::{assemble_with, Layout};

    /// Firmware that sends 20 bytes without host flow control: the TX
    /// FIFO (depth 16) must fill and the device must block politely.
    const FLOOD: &str = "
        start:
            li s0, 0x10000000
            li s1, 20
            li s2, 0
        loop:
        wait_tx:
            lw t0, 8(s0)
            beqz t0, wait_tx
            sw s2, 12(s0)
            addi s2, s2, 1
            addi s1, s1, -1
            bnez s1, loop
        done:
            j done
    ";

    #[test]
    fn tx_backpressure_blocks_device_without_loss() {
        let p = assemble_with(FLOOD, Layout { text_base: ROM_BASE, data_base: RAM_BASE }).unwrap();
        let fw = Firmware::from_program(&p);
        let mut soc = Soc::new(Box::new(IbexCore::new(ROM_BASE)), fw, &[]);
        // Let the device run with no host: FIFO fills to 16 and it spins.
        host::idle(&mut soc, 20_000);
        assert_eq!(soc.tx_fifo.len(), 16);
        assert!(soc.fault().is_none());
        // Now drain: every byte 0..20 must arrive in order, none lost.
        let bytes = host::recv_bytes(&mut soc, 20, 100_000).unwrap();
        assert_eq!(bytes, (0u8..20).collect::<Vec<_>>());
    }

    #[test]
    fn rx_fifo_refuses_overflow() {
        // A device that never reads: the host can push at most 16 bytes.
        let p = assemble_with("spin: j spin", Layout { text_base: ROM_BASE, data_base: RAM_BASE })
            .unwrap();
        let fw = Firmware::from_program(&p);
        let mut soc = Soc::new(Box::new(IbexCore::new(ROM_BASE)), fw, &[]);
        let mut accepted = 0;
        for b in 0..32u8 {
            if host::send_byte(&mut soc, b, 50).is_ok() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 16, "FIFO capacity bounds acceptance");
        assert!(!soc.get_output().rx_ready);
    }
}
