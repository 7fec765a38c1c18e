//! DIR-24-8: full direct indexing on the first 24 bits.
//!
//! The classic line-rate software/ASIC lookup scheme (Gupta, Lin &
//! McKeown, INFOCOM'98): a 2²⁴-entry table resolves any prefix of length
//! ≤ 24 in one probe; longer prefixes chain to per-/24 blocks of 256
//! slots, for a worst case of two probes. The price is memory (~80 MB
//! here) and update cost proportional to the address range a prefix
//! covers — the opposite end of the trade-off space from the tries.

use std::collections::BTreeMap;

use crate::{Fib, NextHop};
use zen_wire::{Ipv4Address, Ipv4Cidr};

const SUB_FLAG: u32 = 0x8000_0000;
const EMPTY: u32 = 0;
/// Length codes: 0 = empty, otherwise `prefix_len + 1`.
const LEN_EMPTY: u8 = 0;

/// A DIR-24-8 direct-index FIB. Next-hop values must fit in 31 bits
/// (minus the empty sentinel), i.e. `< 0x7fff_fffe`.
pub struct Dir24Fib {
    /// Per-/24 cell: `EMPTY`, `nh + 1`, or `SUB_FLAG | block_index`.
    tbl24: Vec<u32>,
    /// Length code of the prefix that wrote each /24 cell.
    tbl24_len: Vec<u8>,
    /// Second-level blocks, 256 slots each, same value encoding
    /// (never `SUB_FLAG`).
    tbl8: Vec<u32>,
    tbl8_len: Vec<u8>,
    /// Authoritative copy, used for update repair and `len`.
    master: BTreeMap<(u8, u32), NextHop>,
}

impl Default for Dir24Fib {
    fn default() -> Dir24Fib {
        Dir24Fib::new()
    }
}

#[inline]
fn net_mask(net: u32, plen: u8) -> u32 {
    if plen == 0 {
        0
    } else {
        net & (u32::MAX << (32 - plen as u32))
    }
}

impl Dir24Fib {
    /// An empty table. Allocates the 2²⁴-entry level-one arrays (~80 MB).
    pub fn new() -> Dir24Fib {
        Dir24Fib {
            tbl24: vec![EMPTY; 1 << 24],
            tbl24_len: vec![LEN_EMPTY; 1 << 24],
            tbl8: Vec::new(),
            tbl8_len: Vec::new(),
            master: BTreeMap::new(),
        }
    }

    /// Number of allocated second-level blocks.
    pub fn block_count(&self) -> usize {
        self.tbl8.len() / 256
    }

    /// The best (longest) strictly-shorter covering entry for `net`
    /// below length `plen`.
    fn cover_below(&self, net: u32, plen: u8) -> Option<(NextHop, u8)> {
        (0..plen)
            .rev()
            .find_map(|l| self.master.get(&(l, net_mask(net, l))).map(|&nh| (nh, l)))
    }

    /// Write `(value, len_code)` into a /24 cell or, if the cell chains to
    /// a block, into every block slot the predicate admits.
    fn overwrite_cell(&mut self, cell: usize, nh: NextHop, plen: u8, replace_len: ReplaceRule) {
        let code = plen + 1;
        let v = self.tbl24[cell];
        if v & SUB_FLAG != 0 {
            let base = ((v & !SUB_FLAG) as usize) * 256;
            for s in 0..256 {
                if replace_len.admits(self.tbl8_len[base + s]) {
                    self.tbl8[base + s] = nh + 1;
                    self.tbl8_len[base + s] = code;
                }
            }
        } else if replace_len.admits(self.tbl24_len[cell]) {
            self.tbl24[cell] = nh + 1;
            self.tbl24_len[cell] = code;
        }
    }

    /// Clear-or-replace a /24 cell (and chained slots) whose writer had
    /// exactly length `plen`, restoring `cover`.
    fn restore_cell(&mut self, cell: usize, plen: u8, cover: Option<(NextHop, u8)>) {
        let code = plen + 1;
        let (cv, cl) = match cover {
            Some((nh, l)) => (nh + 1, l + 1),
            None => (EMPTY, LEN_EMPTY),
        };
        let v = self.tbl24[cell];
        if v & SUB_FLAG != 0 {
            let base = ((v & !SUB_FLAG) as usize) * 256;
            for s in 0..256 {
                if self.tbl8_len[base + s] == code {
                    self.tbl8[base + s] = cv;
                    self.tbl8_len[base + s] = cl;
                }
            }
        } else if self.tbl24_len[cell] == code {
            self.tbl24[cell] = cv;
            self.tbl24_len[cell] = cl;
        }
    }
}

/// Which existing length codes an insert may overwrite.
#[derive(Clone, Copy)]
struct ReplaceRule {
    /// Overwrite entries with length code ≤ this (plus empties).
    max_code: u8,
}

impl ReplaceRule {
    fn admits(&self, existing_code: u8) -> bool {
        existing_code == LEN_EMPTY || existing_code <= self.max_code
    }
}

impl Fib for Dir24Fib {
    fn insert(&mut self, prefix: Ipv4Cidr, next_hop: NextHop) {
        assert!(
            next_hop < SUB_FLAG - 1,
            "next hop must fit in 31 bits minus the empty sentinel"
        );
        let net = prefix.network().to_u32();
        let plen = prefix.prefix_len();
        self.master.insert((plen, net), next_hop);
        let rule = ReplaceRule { max_code: plen + 1 };

        if plen <= 24 {
            let first = (net >> 8) as usize;
            let count = 1usize << (24 - plen);
            for cell in first..first + count {
                self.overwrite_cell(cell, next_hop, plen, rule);
            }
        } else {
            let cell = (net >> 8) as usize;
            let v = self.tbl24[cell];
            let base = if v & SUB_FLAG != 0 {
                ((v & !SUB_FLAG) as usize) * 256
            } else {
                // Promote the cell to a block seeded with its current
                // contents.
                let block = self.tbl8.len() / 256;
                self.tbl8.extend(std::iter::repeat_n(v, 256));
                self.tbl8_len
                    .extend(std::iter::repeat_n(self.tbl24_len[cell], 256));
                self.tbl24[cell] = SUB_FLAG | block as u32;
                self.tbl24_len[cell] = LEN_EMPTY;
                block * 256
            };
            let first = (net & 0xff) as usize;
            let count = 1usize << (32 - plen);
            for s in first..first + count {
                if rule.admits(self.tbl8_len[base + s]) {
                    self.tbl8[base + s] = next_hop + 1;
                    self.tbl8_len[base + s] = plen + 1;
                }
            }
        }
    }

    fn remove(&mut self, prefix: Ipv4Cidr) -> bool {
        let net = prefix.network().to_u32();
        let plen = prefix.prefix_len();
        if self.master.remove(&(plen, net)).is_none() {
            return false;
        }
        let cover = self.cover_below(net, plen);

        if plen <= 24 {
            let first = (net >> 8) as usize;
            let count = 1usize << (24 - plen);
            for cell in first..first + count {
                self.restore_cell(cell, plen, cover);
            }
        } else {
            let cell = (net >> 8) as usize;
            let v = self.tbl24[cell];
            debug_assert!(v & SUB_FLAG != 0, "long prefix without block");
            if v & SUB_FLAG != 0 {
                let base = ((v & !SUB_FLAG) as usize) * 256;
                let code = plen + 1;
                let (cv, cl) = match cover {
                    Some((nh, l)) => (nh + 1, l + 1),
                    None => (EMPTY, LEN_EMPTY),
                };
                let first = (net & 0xff) as usize;
                let count = 1usize << (32 - plen);
                for s in first..first + count {
                    if self.tbl8_len[base + s] == code {
                        self.tbl8[base + s] = cv;
                        self.tbl8_len[base + s] = cl;
                    }
                }
            }
        }
        true
    }

    fn lookup(&self, addr: Ipv4Address) -> Option<NextHop> {
        let a = addr.to_u32();
        let v = self.tbl24[(a >> 8) as usize];
        if v == EMPTY {
            return None;
        }
        if v & SUB_FLAG != 0 {
            let base = ((v & !SUB_FLAG) as usize) * 256;
            let s = self.tbl8[base + (a & 0xff) as usize];
            if s == EMPTY {
                None
            } else {
                Some(s - 1)
            }
        } else {
            Some(v - 1)
        }
    }

    fn len(&self) -> usize {
        self.master.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    #[test]
    fn short_prefixes() {
        let mut fib = Dir24Fib::new();
        fib.insert(cidr("10.0.0.0/8"), 1);
        fib.insert(cidr("10.1.0.0/16"), 2);
        fib.insert(cidr("10.1.2.0/24"), 3);
        assert_eq!(fib.lookup(addr("10.1.2.3")), Some(3));
        assert_eq!(fib.lookup(addr("10.1.3.3")), Some(2));
        assert_eq!(fib.lookup(addr("10.2.2.3")), Some(1));
        assert_eq!(fib.lookup(addr("11.0.0.1")), None);
        assert_eq!(fib.block_count(), 0);
    }

    #[test]
    fn long_prefixes_allocate_blocks() {
        let mut fib = Dir24Fib::new();
        fib.insert(cidr("10.0.0.0/8"), 1);
        fib.insert(cidr("10.1.2.128/25"), 4);
        fib.insert(cidr("10.1.2.130/32"), 5);
        assert_eq!(fib.block_count(), 1);
        assert_eq!(fib.lookup(addr("10.1.2.130")), Some(5));
        assert_eq!(fib.lookup(addr("10.1.2.131")), Some(4));
        assert_eq!(fib.lookup(addr("10.1.2.1")), Some(1)); // below the /25
    }

    #[test]
    fn shorter_insert_does_not_clobber_longer() {
        let mut fib = Dir24Fib::new();
        fib.insert(cidr("10.1.2.0/24"), 3);
        fib.insert(cidr("10.0.0.0/8"), 1); // inserted after, shorter
        assert_eq!(fib.lookup(addr("10.1.2.9")), Some(3));
        assert_eq!(fib.lookup(addr("10.1.3.9")), Some(1));
    }

    #[test]
    fn remove_restores_cover() {
        let mut fib = Dir24Fib::new();
        fib.insert(cidr("10.0.0.0/8"), 1);
        fib.insert(cidr("10.1.0.0/16"), 2);
        assert!(fib.remove(cidr("10.1.0.0/16")));
        assert_eq!(fib.lookup(addr("10.1.5.5")), Some(1));
        assert!(fib.remove(cidr("10.0.0.0/8")));
        assert_eq!(fib.lookup(addr("10.1.5.5")), None);
        assert_eq!(fib.len(), 0);
    }

    #[test]
    fn remove_long_prefix_restores_block_slots() {
        let mut fib = Dir24Fib::new();
        fib.insert(cidr("10.1.2.0/24"), 3);
        fib.insert(cidr("10.1.2.128/25"), 4);
        assert!(fib.remove(cidr("10.1.2.128/25")));
        assert_eq!(fib.lookup(addr("10.1.2.200")), Some(3));
        // Remove again is false.
        assert!(!fib.remove(cidr("10.1.2.128/25")));
    }

    #[test]
    fn replace_same_prefix() {
        let mut fib = Dir24Fib::new();
        fib.insert(cidr("10.1.0.0/16"), 2);
        fib.insert(cidr("10.1.0.0/16"), 7);
        assert_eq!(fib.len(), 1);
        assert_eq!(fib.lookup(addr("10.1.2.3")), Some(7));
    }

    #[test]
    fn default_route_fills_everything() {
        let mut fib = Dir24Fib::new();
        fib.insert(cidr("0.0.0.0/0"), 9);
        assert_eq!(fib.lookup(addr("1.2.3.4")), Some(9));
        assert_eq!(fib.lookup(addr("255.255.255.255")), Some(9));
        fib.insert(cidr("8.0.0.0/8"), 1);
        assert_eq!(fib.lookup(addr("8.8.8.8")), Some(1));
        assert!(fib.remove(cidr("0.0.0.0/0")));
        assert_eq!(fib.lookup(addr("1.2.3.4")), None);
        assert_eq!(fib.lookup(addr("8.8.8.8")), Some(1));
    }

    #[test]
    fn cover_through_block() {
        // Remove a /32 inside a block; the /16 underneath must show.
        let mut fib = Dir24Fib::new();
        fib.insert(cidr("10.1.0.0/16"), 2);
        fib.insert(cidr("10.1.2.3/32"), 9);
        assert_eq!(fib.lookup(addr("10.1.2.3")), Some(9));
        assert!(fib.remove(cidr("10.1.2.3/32")));
        assert_eq!(fib.lookup(addr("10.1.2.3")), Some(2));
    }
}
