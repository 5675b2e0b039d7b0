//! Flits and message headers.
//!
//! Wormhole switching (§2.2): "every message in the network is divided into
//! flits (flow control units) transmitted in a pipelined fashion". Only the
//! head flit carries routing information; body/tail flits follow the path
//! the head reserved.

use ftr_topo::NodeId;
use serde::{Deserialize, Serialize};

/// Unique message identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MessageId(pub u64);

/// Routing information carried in the head flit. The message interface of
/// the rule-based router can *modify* headers in flight (§3 "Lifelock
/// Avoidance": messages on non-minimal paths due to faults are marked and
/// treated exceptionally), so the fields here are mutable state, not
/// immutable metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Header {
    /// Message id.
    pub msg: MessageId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Total length in flits (head + body + tail).
    pub len_flits: u32,
    /// Set when the message was forced off a minimal path by faults.
    pub misrouted: bool,
    /// Hops taken so far (path-length counter for livelock control).
    pub hops: u32,
    /// Virtual-network tag (e.g. NAFTA's north-last / south-last choice).
    pub vnet: u8,
    /// Algorithm phase (e.g. ROUTE_C's increasing/decreasing coordinate
    /// phases).
    pub phase: u8,
}

impl Header {
    /// Creates a fresh header for an injected message.
    pub fn new(msg: MessageId, src: NodeId, dst: NodeId, len_flits: u32) -> Self {
        Header { msg, src, dst, len_flits, misrouted: false, hops: 0, vnet: 0, phase: 0 }
    }
}

/// Flit kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlitKind {
    /// Head flit: the header fields of its [`Flit`] are meaningful.
    Head,
    /// Body flit.
    Body,
    /// Tail flit (releases channel state as it passes).
    Tail,
}

/// One flow-control unit, 32 bytes. The header travels inline in the
/// head flit; on body and tail flits the header fields are zero and
/// ignored. The engine moves flits by value through FIFO rings and link
/// registers, so their size is the size of every copy on the data path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Flit {
    /// Owning message.
    pub msg: MessageId,
    /// Sequence number within the message (0 = head).
    pub seq: u32,
    /// Kind (a head carries the header fields below).
    pub kind: FlitKind,
    src: NodeId,
    dst: NodeId,
    len_flits: u32,
    hops: u32,
    misrouted: bool,
    vnet: u8,
    phase: u8,
}

const _: () = assert!(std::mem::size_of::<Flit>() == 32);

impl Flit {
    /// A body or tail flit (no header).
    pub fn new(kind: FlitKind, msg: MessageId, seq: u32) -> Self {
        debug_assert!(kind != FlitKind::Head, "a head flit is built from its header");
        Flit {
            msg,
            seq,
            kind,
            src: NodeId(0),
            dst: NodeId(0),
            len_flits: 0,
            hops: 0,
            misrouted: false,
            vnet: 0,
            phase: 0,
        }
    }

    /// The head flit of the message `h` describes.
    pub fn head(h: Header) -> Self {
        let mut f = Flit { kind: FlitKind::Head, ..Flit::new(FlitKind::Body, h.msg, 0) };
        f.set_header(h);
        f
    }

    /// The flit sequence of a whole message. A 1-flit message is a single
    /// head flit that also acts as tail.
    pub fn sequence(header: Header) -> impl Iterator<Item = Flit> {
        let n = header.len_flits.max(1);
        (0..n).map(move |seq| match seq {
            0 => Flit::head(header),
            s if s == n - 1 => Flit::new(FlitKind::Tail, header.msg, s),
            s => Flit::new(FlitKind::Body, header.msg, s),
        })
    }

    /// The header if this is a head flit.
    #[inline]
    pub fn header(&self) -> Option<Header> {
        (self.kind == FlitKind::Head).then_some(Header {
            msg: self.msg,
            src: self.src,
            dst: self.dst,
            len_flits: self.len_flits,
            misrouted: self.misrouted,
            hops: self.hops,
            vnet: self.vnet,
            phase: self.phase,
        })
    }

    /// Writes the header fields back (the message interface may modify
    /// them in flight). The message id is the flit's own and is kept.
    #[inline]
    pub fn set_header(&mut self, h: Header) {
        self.src = h.src;
        self.dst = h.dst;
        self.len_flits = h.len_flits;
        self.hops = h.hops;
        self.misrouted = h.misrouted;
        self.vnet = h.vnet;
        self.phase = h.phase;
    }

    /// Whether this is the last flit of its message (a tail, or the head
    /// of a 1-flit message).
    #[inline]
    pub fn ends_message(&self) -> bool {
        match self.kind {
            FlitKind::Tail => true,
            FlitKind::Head => self.len_flits <= 1,
            FlitKind::Body => false,
        }
    }

    /// Counts one more hop on a head flit (no-op on body and tail flits).
    #[inline]
    pub fn bump_hops(&mut self) {
        if self.kind == FlitKind::Head {
            self.hops += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_structure() {
        let h = Header::new(MessageId(1), NodeId(0), NodeId(5), 4);
        let seq: Vec<Flit> = Flit::sequence(h).collect();
        assert_eq!(seq.len(), 4);
        let kinds: Vec<FlitKind> = seq.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, [FlitKind::Head, FlitKind::Body, FlitKind::Body, FlitKind::Tail]);
        assert_eq!(seq[0].header(), Some(h));
        assert!(seq[3].ends_message());
        assert!(!seq[0].ends_message());
        assert!(seq.iter().enumerate().all(|(i, f)| f.msg == h.msg && f.seq == i as u32));
    }

    #[test]
    fn single_flit_message() {
        let h = Header::new(MessageId(2), NodeId(1), NodeId(2), 1);
        let seq: Vec<Flit> = Flit::sequence(h).collect();
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].kind, FlitKind::Head);
        assert!(seq[0].ends_message());
    }

    #[test]
    fn header_mutation_through_flit() {
        let h = Header::new(MessageId(3), NodeId(0), NodeId(9), 2);
        let mut seq: Vec<Flit> = Flit::sequence(h).collect();
        let mut hh = seq[0].header().unwrap();
        hh.misrouted = true;
        hh.hops = 7;
        hh.vnet = 1;
        hh.phase = 2;
        seq[0].set_header(hh);
        seq[0].bump_hops();
        assert_eq!(seq[0].header(), Some(Header { hops: 8, ..hh }));
        assert!(seq[1].header().is_none());
        // hop bumps on body and tail flits are no-ops
        let tail = seq[1];
        seq[1].bump_hops();
        assert_eq!(seq[1], tail);
    }
}
