//! The wiring table both engines look links up in: `(node, port) → link`.

use crate::world::{LinkId, NodeId, PortNo};

/// Which link hangs off each port of each node.
///
/// One sorted `(port, link)` list per node. `connect` hands ports out
/// as 1, 2, 3, …, so entry `port - 1` is tried first and is nearly
/// always the one: a lookup is two array reads. Explicit numberings
/// (`connect_ports(a, 5, b, 9, …)`) fall back to a binary search of
/// that node's list. Memory is per wired port, never per port number —
/// port `u32::MAX` costs one entry.
#[derive(Debug, Clone, Default)]
pub struct PortTable {
    nodes: Vec<Vec<(PortNo, LinkId)>>,
}

impl PortTable {
    /// `Ok(index)` of `port` in `ports`, or `Err(index)` where it belongs.
    fn position(ports: &[(PortNo, LinkId)], port: PortNo) -> Result<usize, usize> {
        let guess = (port as usize).wrapping_sub(1);
        if ports.get(guess).is_some_and(|&(p, _)| p == port) {
            return Ok(guess);
        }
        ports.binary_search_by_key(&port, |&(p, _)| p)
    }

    /// The link wired to `port` of `node`, if any.
    #[inline]
    pub fn link(&self, node: NodeId, port: PortNo) -> Option<LinkId> {
        let ports = self.nodes.get(node.0 as usize)?;
        Self::position(ports, port).ok().map(|i| ports[i].1)
    }

    /// Wire `port` of `node` to `link`.
    ///
    /// # Panics
    /// Panics if the port is already wired.
    pub fn wire(&mut self, node: NodeId, port: PortNo, link: LinkId) {
        let idx = node.0 as usize;
        if self.nodes.len() <= idx {
            self.nodes.resize_with(idx + 1, Vec::new);
        }
        let ports = &mut self.nodes[idx];
        match Self::position(ports, port) {
            Ok(_) => panic!("port {port} on {node} already connected"),
            Err(i) => ports.insert(i, (port, link)),
        }
    }

    /// The wired ports of `node`, ascending.
    pub fn ports(&self, node: NodeId) -> Vec<PortNo> {
        let ports = self.nodes.get(node.0 as usize);
        ports.map_or_else(Vec::new, |ports| ports.iter().map(|&(p, _)| p).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_sparse_and_unknown_ports() {
        let mut table = PortTable::default();
        let (a, b) = (NodeId(0), NodeId(3));
        for port in 1..=4 {
            table.wire(a, port, LinkId(port + 10));
        }
        // Sparse explicit ports, wired out of order, on a node past the
        // end of the table.
        table.wire(b, 9, LinkId(1));
        table.wire(b, 5, LinkId(2));
        table.wire(b, PortNo::MAX, LinkId(3));
        table.wire(b, 1, LinkId(4));

        assert_eq!(table.link(a, 3), Some(LinkId(13)));
        assert_eq!(table.link(b, 5), Some(LinkId(2)));
        assert_eq!(table.link(b, 9), Some(LinkId(1)));
        assert_eq!(table.link(b, PortNo::MAX), Some(LinkId(3)));
        assert_eq!(table.link(b, 1), Some(LinkId(4)));
        for (node, port) in [
            (a, 0),
            (a, 5),
            (b, 2),
            (b, 6),
            (NodeId(1), 1),
            (NodeId(9), 1),
        ] {
            assert_eq!(table.link(node, port), None, "{node} port {port}");
        }
        assert_eq!(table.ports(a), vec![1, 2, 3, 4]);
        assert_eq!(table.ports(b), vec![1, 5, 9, PortNo::MAX]);
        assert!(table.ports(NodeId(1)).is_empty());
        assert!(table.ports(NodeId(9)).is_empty());
        // One entry per wired port, whatever its number.
        assert_eq!(table.nodes.iter().map(Vec::len).sum::<usize>(), 8);
    }

    #[test]
    #[should_panic(expected = "port 5 on n2 already connected")]
    fn wiring_a_port_twice_panics() {
        let mut table = PortTable::default();
        table.wire(NodeId(2), 5, LinkId(0));
        table.wire(NodeId(2), 5, LinkId(1));
    }
}
