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

use parfait_cores::{Core, Fault, MemIf};
use parfait_riscv::asm::Program;
use parfait_riscv::predecode::DecodeCache;
use parfait_rtl::{Circuit, Fifo, TaintMem, WireIn, WireOut, W};

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
#[derive(Clone, Debug)]
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

/// The complete HSM SoC.
///
/// The SoC is `Clone`: a snapshot is cheap because the read-only parts
/// (ROM image, firmware) are behind `Arc` and everything else is plain
/// data. The crash-safety sweep replays every power-failure cut point
/// from one mid-command snapshot.
#[derive(Clone)]
pub struct Soc {
    /// The CPU core.
    pub core: Box<dyn Core>,
    /// Firmware ROM (read-only, shared between snapshots).
    pub rom: Arc<TaintMem>,
    /// Working RAM.
    pub ram: TaintMem,
    /// Persistent memory; its contents are tainted (secret).
    pub fram: TaintMem,
    /// Host → device FIFO.
    pub rx_fifo: Fifo,
    /// Device → host FIFO.
    pub tx_fifo: Fifo,
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
    /// Output wires as of the end of the last `tick` (cached so the
    /// host-protocol and checker hot paths read a field instead of
    /// re-deriving the wires from FIFO state several times per cycle).
    output: WireOut,
}

struct Bus<'a> {
    rom: &'a TaintMem,
    ram: &'a mut TaintMem,
    fram: &'a mut TaintMem,
    rx_fifo: &'a mut Fifo,
    tx_fifo: &'a mut Fifo,
    bus_fault: &'a mut Option<u32>,
    stack_min_store: &'a mut u32,
    seeded: Option<SeededBug>,
}

impl MemIf for Bus<'_> {
    fn fetch(&mut self, addr: u32) -> u32 {
        if (ROM_BASE..ROM_BASE + ROM_SIZE).contains(&addr) {
            self.rom.read_word(addr - ROM_BASE).v
        } else {
            *self.bus_fault = Some(addr);
            0
        }
    }

    fn read(&mut self, addr: u32) -> W {
        match addr {
            a if (ROM_BASE..ROM_BASE + ROM_SIZE).contains(&a) => self.rom.read_word(a - ROM_BASE),
            a if (RAM_BASE..RAM_BASE + RAM_SIZE).contains(&a) => self.ram.read_word(a - RAM_BASE),
            a if (FRAM_BASE..FRAM_BASE + FRAM_SIZE).contains(&a) => {
                self.fram.read_word(a - FRAM_BASE)
            }
            IO_RX_STATUS => W::pub32(self.rx_fifo.can_pop() as u32),
            IO_RX_DATA => self.rx_fifo.pop().unwrap_or(W::pub32(0)),
            IO_TX_STATUS => W::pub32(self.tx_fifo.can_push() as u32),
            a => {
                *self.bus_fault = Some(a);
                W::pub32(0)
            }
        }
    }

    fn write(&mut self, addr: u32, val: W, mask: u8) {
        match addr {
            a if (RAM_BASE..RAM_BASE + RAM_SIZE).contains(&a) => {
                if a >= STACK_FLOOR && a < *self.stack_min_store {
                    *self.stack_min_store = a;
                }
                self.ram.write_word(a - RAM_BASE, val, mask)
            }
            a if (FRAM_BASE..FRAM_BASE + FRAM_SIZE).contains(&a) => {
                if a - FRAM_BASE < 4 && self.seeded == Some(SeededBug::DropJournalWrite) {
                    return; // the journal flag word never reaches the FRAM
                }
                self.fram.write_word(a - FRAM_BASE, val, mask)
            }
            IO_TX_DATA => {
                // Byte-wide register; lane 0 carries the data.
                self.tx_fifo.push(W { v: val.v & 0xFF, t: val.t });
                if self.seeded == Some(SeededBug::TxDoubleCommit) {
                    self.tx_fifo.push(W { v: val.v & 0xFF, t: val.t });
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
            output: WireOut::default(),
        };
        soc.refresh_output();
        soc
    }

    /// Seed a deliberate hardware bug (see [`SeededBug`]). Mutation
    /// testing only; the seed survives power cycles.
    pub fn seed_bug(&mut self, bug: SeededBug) {
        self.seeded = Some(bug);
    }

    /// Recompute the cached output wires from the FIFO state.
    fn refresh_output(&mut self) {
        let tx = self.tx_fifo.peek();
        self.output = WireOut {
            rx_ready: self.rx_fifo.can_push(),
            tx_valid: tx.is_some(),
            tx_data: tx.map(|w| w.v as u8).unwrap_or(0),
            tx_taint: tx.map(|w| w.t).unwrap_or(false),
        };
    }

    /// Read the FRAM word at byte `offset` (values only, no allocation —
    /// the emulator polls the journal flag with this every cycle).
    pub fn fram_word(&self, offset: u32) -> u32 {
        self.fram.read_word(offset).v
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

    /// Dump `len` bytes of FRAM starting at `offset` (values only).
    pub fn fram_bytes(&self, offset: usize, len: usize) -> Vec<u8> {
        self.fram.dump_bytes(offset, len)
    }

    /// The observed stack high-water mark: the lowest address the core
    /// stored to inside the stack region (at or above [`STACK_FLOOR`]),
    /// or `None` if the stack was never written. Monotone over the
    /// SoC's whole life, including across power cycles.
    pub fn stack_high_water(&self) -> Option<u32> {
        (self.stack_min_store != u32::MAX).then_some(self.stack_min_store)
    }

    /// Read `len` bytes of RAM at an absolute address.
    pub fn ram_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        assert!(addr >= RAM_BASE);
        self.ram.dump_bytes((addr - RAM_BASE) as usize, len)
    }

    /// Write bytes into RAM at an absolute address with given taint.
    pub fn ram_store(&mut self, addr: u32, bytes: &[u8], taint: bool) {
        assert!(addr >= RAM_BASE);
        self.ram.load_bytes((addr - RAM_BASE) as usize, bytes, taint);
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

impl Circuit for Soc {
    fn set_input(&mut self, input: WireIn) {
        self.input = input;
    }

    fn get_output(&self) -> WireOut {
        self.output
    }

    fn tick(&mut self) {
        self.cycles += 1;
        // Host-side handshakes commit at the clock edge.
        let host_idle = !self.input.rx_valid && !self.input.tx_ready;
        if self.input.rx_valid && self.rx_fifo.can_push() {
            self.rx_fifo.push(W::pub32(self.input.rx_data as u32));
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
            seeded: self.seeded,
        };
        self.core.step(&mut bus);
        if self.core.last_retired().is_some() {
            self.instructions_retired += 1;
        }
        // Fast idle path: with no host activity and both FIFOs empty
        // after the core stepped, the wires are pinned at the idle
        // pattern (ready to receive, nothing to send) — skip the
        // reconstruction.
        if host_idle && self.rx_fifo.is_empty() && self.tx_fifo.is_empty() {
            self.output = WireOut { rx_ready: true, tx_valid: false, tx_data: 0, tx_taint: false };
        } else {
            self.refresh_output();
        }
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
