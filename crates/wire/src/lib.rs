//! # zen-wire — packet parsing and emission
//!
//! Typed, zero-copy views over raw packet buffers for the protocols the
//! `zen` platform speaks on the wire: Ethernet II, ARP, IPv4, ICMPv4, UDP,
//! TCP, and LLDP (used for SDN topology discovery).
//!
//! The design follows the `smoltcp` wire idiom:
//!
//! * A *view* type per protocol (e.g. [`ipv4::Packet`]) wraps any
//!   `AsRef<[u8]>` buffer and exposes field accessors at fixed offsets.
//!   Construction via `new_checked` validates lengths so accessors never
//!   panic on well-formed views; malformed input yields [`Error`].
//! * A *representation* type per protocol (e.g. [`ipv4::Repr`]) is a plain
//!   struct of parsed header values. `Repr::parse` lifts a view into a
//!   representation (validating checksums), and `Repr::emit` writes it back
//!   into a mutable view.
//! * [`builder::PacketBuilder`] composes whole frames (Ethernet → IPv4 →
//!   UDP payload, ARP, LLDP, …) for tests, simulators, and traffic
//!   generators.
//!
//! No allocation is required to parse; emission writes into caller-provided
//! buffers. The crate has no dependencies and never panics on untrusted
//! input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod arp;
pub mod builder;
pub mod checksum;
pub mod ethernet;
pub mod fnv;
pub mod icmpv4;
pub mod ipv4;
pub mod lcg;
pub mod lldp;
pub mod tcp;
pub mod udp;

pub use address::{EthernetAddress, Ipv4Address, Ipv4Cidr};

/// The error type for wire-format operations.
///
/// Parsing is total: malformed input produces an `Error`, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is too short to contain the protocol header, or a length
    /// field points past the end of the buffer.
    Truncated,
    /// A checksum (IPv4 header, ICMP, UDP, or TCP) failed verification.
    Checksum,
    /// A field holds a value the protocol does not allow (e.g. IPv4 version
    /// != 4, header length below the minimum).
    Malformed,
    /// The value is not recognized (e.g. an unknown ARP operation).
    Unrecognized,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated => write!(f, "truncated packet"),
            Error::Checksum => write!(f, "checksum mismatch"),
            Error::Malformed => write!(f, "malformed field"),
            Error::Unrecognized => write!(f, "unrecognized value"),
        }
    }
}

impl std::error::Error for Error {}

/// Specialized `Result` for wire-format operations.
pub type Result<T> = core::result::Result<T, Error>;

/// Read a big-endian `u16` at `offset`. Caller must have checked bounds.
#[inline]
pub(crate) fn get_u16(data: &[u8], offset: usize) -> u16 {
    u16::from_be_bytes([data[offset], data[offset + 1]])
}

/// Read a big-endian `u32` at `offset`. Caller must have checked bounds.
#[inline]
pub(crate) fn get_u32(data: &[u8], offset: usize) -> u32 {
    u32::from_be_bytes([
        data[offset],
        data[offset + 1],
        data[offset + 2],
        data[offset + 3],
    ])
}

/// Write a big-endian `u16` at `offset`.
#[inline]
pub(crate) fn set_u16(data: &mut [u8], offset: usize, value: u16) {
    data[offset..offset + 2].copy_from_slice(&value.to_be_bytes());
}

/// Write a big-endian `u32` at `offset`.
#[inline]
pub(crate) fn set_u32(data: &mut [u8], offset: usize, value: u32) {
    data[offset..offset + 4].copy_from_slice(&value.to_be_bytes());
}
