//! Wire messages between simulated participants.
//!
//! Every protocol step the runner executes becomes one [`Message`] on the
//! simulated network. Messages have a compact binary encoding (used to
//! measure bytes-on-the-wire in the cost-of-mistrust benchmarks) with a
//! lossless decode.

use crate::time::SimTime;
use crate::SimError;
use serde::{Deserialize, Serialize};
use std::fmt;
use trustseq_model::{Action, AgentId, ItemId, Money};

/// Length of an encoded [`Message`] frame: send time (8 bytes), action tag
/// (1), sender (4), receiver (4), payload (8), all big-endian.
const FRAME_LEN: usize = 25;

/// A message on the simulated network: an [`Action`] stamped with its send
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Message {
    /// When the message was sent.
    pub at: SimTime,
    /// The action the message carries out.
    pub action: Action,
}

impl Message {
    /// Creates a message.
    pub fn new(at: SimTime, action: Action) -> Self {
        Message { at, action }
    }

    /// Encodes the message into a compact binary frame.
    pub fn encode(&self) -> [u8; FRAME_LEN] {
        let (tag, from, to, payload) = match self.action {
            Action::Give { from, to, item } => (0u8, from, to, item.index() as i64),
            Action::Pay { from, to, amount } => (1, from, to, amount.cents()),
            Action::InverseGive { from, to, item } => (2, from, to, item.index() as i64),
            Action::InversePay { from, to, amount } => (3, from, to, amount.cents()),
            Action::Notify { from, to } => (4, from, to, 0),
        };
        let mut frame = [0u8; FRAME_LEN];
        frame[0..8].copy_from_slice(&self.at.ticks().to_be_bytes());
        frame[8] = tag;
        frame[9..13].copy_from_slice(&(from.index() as u32).to_be_bytes());
        frame[13..17].copy_from_slice(&(to.index() as u32).to_be_bytes());
        frame[17..25].copy_from_slice(&payload.to_be_bytes());
        frame
    }

    /// Decodes a frame produced by [`Message::encode`].
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedFrame`] when the frame is truncated or carries an
    /// unknown tag.
    pub fn decode(frame: &[u8]) -> Result<Self, SimError> {
        let Ok(frame) = <&[u8; FRAME_LEN]>::try_from(frame) else {
            return Err(SimError::MalformedFrame {
                len: frame.len(),
                reason: "expected a 25-byte frame",
            });
        };
        // A big-endian field of the frame, widened to 64 bits.
        let field = |range: std::ops::Range<usize>| {
            frame[range]
                .iter()
                .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
        };
        let at = SimTime::from_ticks(field(0..8));
        let tag = frame[8];
        let from = AgentId::new(field(9..13) as u32);
        let to = AgentId::new(field(13..17) as u32);
        let payload = field(17..25) as i64;
        let action = match tag {
            0 => Action::Give {
                from,
                to,
                item: ItemId::new(payload as u32),
            },
            1 => Action::Pay {
                from,
                to,
                amount: Money::from_cents(payload),
            },
            2 => Action::InverseGive {
                from,
                to,
                item: ItemId::new(payload as u32),
            },
            3 => Action::InversePay {
                from,
                to,
                amount: Money::from_cents(payload),
            },
            4 => Action::Notify { from, to },
            _ => {
                return Err(SimError::MalformedFrame {
                    len: FRAME_LEN,
                    reason: "unknown action tag",
                })
            }
        };
        Ok(Message { at, action })
    }

    /// The size of the encoded frame in bytes (constant, but exposed for
    /// wire-cost accounting).
    pub fn encoded_len(&self) -> usize {
        FRAME_LEN
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.at, self.action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(action: Action) {
        let msg = Message::new(SimTime::from_ticks(42), action);
        let decoded = Message::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(msg.encode().len(), msg.encoded_len());
    }

    #[test]
    fn all_action_kinds_roundtrip() {
        let a = AgentId::new(3);
        let b = AgentId::new(7);
        roundtrip(Action::give(a, b, ItemId::new(5)));
        roundtrip(Action::pay(a, b, Money::from_cents(123_456)));
        roundtrip(Action::give(a, b, ItemId::new(5)).inverse().unwrap());
        roundtrip(Action::pay(a, b, Money::from_cents(-50)).inverse().unwrap());
        roundtrip(Action::notify(a, b));
    }

    #[test]
    fn truncated_frames_rejected() {
        let msg = Message::new(
            SimTime::ZERO,
            Action::notify(AgentId::new(0), AgentId::new(1)),
        );
        let frame = msg.encode();
        assert!(matches!(
            Message::decode(&frame[..10]),
            Err(SimError::MalformedFrame { .. })
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let msg = Message::new(
            SimTime::ZERO,
            Action::notify(AgentId::new(0), AgentId::new(1)),
        );
        let mut raw = msg.encode();
        raw[8] = 99; // corrupt the tag byte
        assert!(matches!(
            Message::decode(&raw),
            Err(SimError::MalformedFrame { .. })
        ));
    }

    #[test]
    fn display_shows_time_and_action() {
        let msg = Message::new(
            SimTime::from_ticks(3),
            Action::pay(AgentId::new(0), AgentId::new(1), Money::from_dollars(2)),
        );
        assert_eq!(msg.to_string(), "[t=3] pay[a0->a1]($2.00)");
    }
}
