//! End-to-end communication protection.
//!
//! The watchdog supervises *execution*; signal paths across the network
//! need their own guard. This module implements AUTOSAR-E2E-profile-style
//! protection: each protected payload carries an alive counter and a
//! checksum over counter + data, letting the receiver classify every
//! reception as OK / repeated (stale) / wrong sequence (lost frames) /
//! corrupted. The EASIS gateway services motivate exactly this for
//! inter-domain traffic.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Verdict of one protected reception.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum E2eVerdict {
    /// Counter advanced by one, checksum valid.
    Ok,
    /// Same counter as the previous reception (stale repeat).
    Repeated,
    /// Counter advanced by more than the tolerance (frames lost).
    WrongSequence {
        /// Frames missing between the previous and this reception.
        lost: u8,
    },
    /// Checksum mismatch (payload corrupted in transit).
    Corrupted,
    /// First reception — no history to judge against.
    Initial,
}

impl E2eVerdict {
    /// `true` for verdicts a receiver treats as a communication fault.
    fn is_fault(self) -> bool {
        !matches!(self, E2eVerdict::Ok | E2eVerdict::Initial)
    }
}

impl fmt::Display for E2eVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            E2eVerdict::Ok => write!(f, "ok"),
            E2eVerdict::Repeated => write!(f, "repeated"),
            E2eVerdict::WrongSequence { lost } => write!(f, "wrong sequence ({lost} lost)"),
            E2eVerdict::Corrupted => write!(f, "corrupted"),
            E2eVerdict::Initial => write!(f, "initial"),
        }
    }
}

/// Simple 8-bit checksum over counter and data (stand-in for the CRC-8 of
/// E2E profile 1; collision behaviour is irrelevant to the experiments).
fn checksum(counter: u8, data: &[u8]) -> u8 {
    let mut c: u8 = counter ^ 0x5A;
    for &b in data {
        c = c.rotate_left(3) ^ b;
    }
    c
}

/// Sender-side protection state: wraps payloads with counter + checksum.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct E2eSender {
    counter: u8,
}

impl E2eSender {
    /// Creates a sender starting at counter zero.
    pub fn new() -> Self {
        E2eSender::default()
    }

    /// Wraps `data` into a protected payload: `[counter, checksum, data…]`.
    pub fn protect(&mut self, data: &[u8]) -> Vec<u8> {
        let counter = self.counter;
        self.counter = self.counter.wrapping_add(1);
        let mut out = Vec::with_capacity(data.len() + 2);
        out.push(counter);
        out.push(checksum(counter, data));
        out.extend_from_slice(data);
        out
    }
}

/// Receiver-side protection state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct E2eReceiver {
    last_counter: Option<u8>,
    faults: u64,
    receptions: u64,
    /// Consecutive repeats tolerated before `Repeated` counts as a fault.
    /// State-message buses (FlexRay static slots) legitimately retransmit
    /// the buffered payload until the sender updates it.
    repeat_tolerance: u8,
    consecutive_repeats: u8,
}

impl E2eReceiver {
    /// Creates a receiver with no history and zero repeat tolerance
    /// (event-message semantics: every repeat is a fault).
    pub fn new() -> Self {
        E2eReceiver::default()
    }

    /// Tolerates up to `n` consecutive repeats per fresh value
    /// (state-message semantics; set `n` = bus-cycle ratio − 1).
    pub fn with_repeat_tolerance(mut self, n: u8) -> Self {
        self.repeat_tolerance = n;
        self
    }

    /// Checks a protected payload; returns the verdict and, when the data
    /// is trustworthy (`Ok`/`Initial`), the unwrapped payload.
    pub fn check<'a>(&mut self, payload: &'a [u8]) -> (E2eVerdict, Option<&'a [u8]>) {
        self.receptions += 1;
        if payload.len() < 2 {
            self.faults += 1;
            return (E2eVerdict::Corrupted, None);
        }
        let counter = payload[0];
        let received_sum = payload[1];
        let data = &payload[2..];
        if checksum(counter, data) != received_sum {
            self.faults += 1;
            return (E2eVerdict::Corrupted, None);
        }
        let mut tolerated_repeat = false;
        let verdict = match self.last_counter {
            None => E2eVerdict::Initial,
            Some(last) => {
                let delta = counter.wrapping_sub(last);
                match delta {
                    0 => {
                        self.consecutive_repeats = self.consecutive_repeats.saturating_add(1);
                        tolerated_repeat = self.consecutive_repeats <= self.repeat_tolerance;
                        E2eVerdict::Repeated
                    }
                    1 => {
                        self.consecutive_repeats = 0;
                        E2eVerdict::Ok
                    }
                    d => {
                        self.consecutive_repeats = 0;
                        E2eVerdict::WrongSequence { lost: d - 1 }
                    }
                }
            }
        };
        self.last_counter = Some(counter);
        if verdict.is_fault() && !tolerated_repeat {
            self.faults += 1;
            (verdict, None)
        } else if verdict.is_fault() {
            // Tolerated repeat: stale, so no data, but no fault either.
            (verdict, None)
        } else {
            (verdict, Some(data))
        }
    }

    /// Communication faults seen so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Total receptions checked.
    pub fn receptions(&self) -> u64 {
        self.receptions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_stream_is_ok_after_initial() {
        let mut tx = E2eSender::new();
        let mut rx = E2eReceiver::new();
        let first = tx.protect(&[1, 2]);
        assert_eq!(rx.check(&first).0, E2eVerdict::Initial);
        for i in 0..300u16 {
            let p = tx.protect(&[i as u8]);
            let (verdict, data) = rx.check(&p);
            assert_eq!(verdict, E2eVerdict::Ok, "at {i}");
            assert_eq!(data, Some(&[i as u8][..]));
        }
        assert_eq!(rx.faults(), 0);
    }

    #[test]
    fn repeated_frame_is_flagged_and_data_withheld() {
        let mut tx = E2eSender::new();
        let mut rx = E2eReceiver::new();
        let p = tx.protect(&[7]);
        rx.check(&p);
        let (verdict, data) = rx.check(&p);
        assert_eq!(verdict, E2eVerdict::Repeated);
        assert_eq!(data, None);
        assert_eq!(rx.faults(), 1);
    }

    #[test]
    fn lost_frames_are_counted() {
        let mut tx = E2eSender::new();
        let mut rx = E2eReceiver::new();
        rx.check(&tx.protect(&[0]));
        let _lost1 = tx.protect(&[1]);
        let _lost2 = tx.protect(&[2]);
        let (verdict, _) = rx.check(&tx.protect(&[3]));
        assert_eq!(verdict, E2eVerdict::WrongSequence { lost: 2 });
    }

    #[test]
    fn corruption_is_detected() {
        let mut tx = E2eSender::new();
        let mut rx = E2eReceiver::new();
        let mut p = tx.protect(&[1, 2, 3]);
        p[3] ^= 0x40; // flip a data bit
        let (verdict, data) = rx.check(&p);
        assert_eq!(verdict, E2eVerdict::Corrupted);
        assert_eq!(data, None);
    }

    #[test]
    fn counter_corruption_is_detected_too() {
        let mut tx = E2eSender::new();
        let mut rx = E2eReceiver::new();
        rx.check(&tx.protect(&[1]));
        let mut p = tx.protect(&[1]);
        p[0] = p[0].wrapping_add(5); // tampered counter, checksum now wrong
        assert_eq!(rx.check(&p).0, E2eVerdict::Corrupted);
    }

    #[test]
    fn counter_wraps_transparently() {
        let mut tx = E2eSender::new();
        let mut rx = E2eReceiver::new();
        for i in 0..600u32 {
            let (v, _) = rx.check(&tx.protect(&[i as u8]));
            if i > 0 {
                assert_eq!(v, E2eVerdict::Ok, "at {i}");
            }
        }
        assert_eq!(rx.faults(), 0);
    }

    #[test]
    fn short_payload_is_corrupted() {
        let mut rx = E2eReceiver::new();
        assert_eq!(rx.check(&[1]).0, E2eVerdict::Corrupted);
        assert_eq!(rx.check(&[]).0, E2eVerdict::Corrupted);
        assert_eq!(rx.receptions(), 2);
    }

    #[test]
    fn verdict_fault_classification() {
        assert!(!E2eVerdict::Ok.is_fault());
        assert!(!E2eVerdict::Initial.is_fault());
        assert!(E2eVerdict::Repeated.is_fault());
        assert!(E2eVerdict::Corrupted.is_fault());
        assert!(E2eVerdict::WrongSequence { lost: 1 }.is_fault());
        assert!(E2eVerdict::WrongSequence { lost: 3 }
            .to_string()
            .contains("3 lost"));
    }
}

#[cfg(test)]
mod tolerance_tests {
    use super::*;

    #[test]
    fn state_message_repeats_within_tolerance_are_not_faults() {
        let mut tx = E2eSender::new();
        let mut rx = E2eReceiver::new().with_repeat_tolerance(1);
        // Sender updates every 2nd bus cycle: each payload seen twice.
        for i in 0..50u8 {
            let p = tx.protect(&[i]);
            rx.check(&p);
            let (verdict, data) = rx.check(&p); // retransmission
            assert_eq!(verdict, E2eVerdict::Repeated);
            assert_eq!(data, None, "stale data must still be withheld");
        }
        assert_eq!(rx.faults(), 0);
    }

    #[test]
    fn repeats_beyond_tolerance_are_faults() {
        let mut tx = E2eSender::new();
        let mut rx = E2eReceiver::new().with_repeat_tolerance(1);
        let p = tx.protect(&[7]);
        rx.check(&p); // initial
        rx.check(&p); // tolerated repeat
        rx.check(&p); // sender is dead: repeat #2 exceeds tolerance
        rx.check(&p);
        assert_eq!(rx.faults(), 2);
    }

    #[test]
    fn fresh_value_resets_the_repeat_budget() {
        let mut tx = E2eSender::new();
        let mut rx = E2eReceiver::new().with_repeat_tolerance(1);
        for _ in 0..10 {
            let p = tx.protect(&[1]);
            rx.check(&p);
            rx.check(&p);
        }
        assert_eq!(rx.faults(), 0);
    }
}
