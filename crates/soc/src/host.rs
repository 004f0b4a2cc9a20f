//! Host-side wire-protocol helpers.
//!
//! These drive the SoC's wire interface the way a well-behaved host
//! would; the Knox2 driver (the paper's §5.2 driver) is built from
//! exactly these primitives: `set_input`, `get_output`, `tick`. They
//! take any circuit, `dyn Circuit` included; the FPS checker passes its
//! concrete pair of worlds, so its per-cycle calls are direct.

use parfait_rtl::{Circuit, WireIn};

/// Error driving the wire protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostTimeout {
    /// What the host was waiting for.
    pub waiting_for: &'static str,
    /// Cycles waited.
    pub cycles: u64,
}

impl std::fmt::Display for HostTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host timed out after {} cycles waiting for {}", self.cycles, self.waiting_for)
    }
}

impl std::error::Error for HostTimeout {}

/// Offer one byte on the RX wires until the device accepts it.
pub fn send_byte<C: Circuit + ?Sized>(
    c: &mut C,
    byte: u8,
    max_cycles: u64,
) -> Result<(), HostTimeout> {
    for _ in 0..max_cycles {
        let accepting = c.get_output().rx_ready;
        c.set_input(WireIn { rx_valid: true, rx_data: byte, tx_ready: false });
        c.tick();
        if accepting {
            c.set_input(WireIn::default());
            return Ok(());
        }
    }
    Err(HostTimeout { waiting_for: "rx_ready", cycles: max_cycles })
}

/// Wait for `tx_valid` and consume one byte from the TX wires.
pub fn recv_byte<C: Circuit + ?Sized>(c: &mut C, max_cycles: u64) -> Result<u8, HostTimeout> {
    for _ in 0..max_cycles {
        let out = c.get_output();
        if out.tx_valid {
            c.set_input(WireIn { rx_valid: false, rx_data: 0, tx_ready: true });
            c.tick();
            c.set_input(WireIn::default());
            return Ok(out.tx_data);
        }
        c.set_input(WireIn::default());
        c.tick();
    }
    Err(HostTimeout { waiting_for: "tx_valid", cycles: max_cycles })
}

/// Send a buffer byte-by-byte.
pub fn send_bytes<C: Circuit + ?Sized>(
    c: &mut C,
    bytes: &[u8],
    max_cycles: u64,
) -> Result<(), HostTimeout> {
    for &b in bytes {
        send_byte(c, b, max_cycles)?;
    }
    Ok(())
}

/// Receive exactly `n` bytes.
pub fn recv_bytes<C: Circuit + ?Sized>(
    c: &mut C,
    n: usize,
    max_cycles: u64,
) -> Result<Vec<u8>, HostTimeout> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(recv_byte(c, max_cycles)?);
    }
    Ok(out)
}

/// Run the clock for `n` idle cycles (no host activity).
pub fn idle<C: Circuit + ?Sized>(c: &mut C, n: u64) {
    c.set_input(WireIn::default());
    for _ in 0..n {
        c.tick();
    }
}
