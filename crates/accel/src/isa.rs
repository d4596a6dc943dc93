//! The accelerator's control instruction set, including the paper's
//! `set_boost_config` instruction (Sec. 3.2.1).
//!
//! Instructions encode to single 64-bit control words. The encoding is
//! deliberately simple: an 8-bit opcode in the top byte, operands packed
//! little-endian below it.

use dante_circuit::bic::BoostConfig;

/// Which on-chip memory an instruction targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryId {
    /// The 128 KB weight memory.
    Weight,
    /// The 16 KB input/activation memory.
    Input,
}

impl MemoryId {
    fn code(self) -> u8 {
        match self {
            Self::Weight => 0,
            Self::Input => 1,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Weight),
            1 => Some(Self::Input),
            _ => None,
        }
    }
}

/// One control instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// `set_boost_config`: program the boost configuration register of one
    /// bank. Applies to all subsequent accesses to that bank until
    /// re-written.
    SetBoostConfig {
        /// Target memory.
        mem: MemoryId,
        /// Bank index within the memory.
        bank: u8,
        /// Configuration bits (one per booster cell, 4 on the chip).
        config: u8,
    },
    /// Load a tile of weights from host memory into the weight memory.
    LoadWeights {
        /// Destination word address in the weight memory.
        dst_word: u32,
        /// Number of 64-bit words.
        words: u32,
    },
    /// Load an input vector into the input memory.
    LoadInputs {
        /// Destination word address in the input memory.
        dst_word: u32,
        /// Number of 64-bit words.
        words: u32,
    },
    /// Execute one tile of a weight stage: every weight row of the tile
    /// against each output pixel's input patch (one pixel for a dense
    /// stage).
    ///
    /// Field widths in the encoding: `w_word` 20 bits, `in_word` 12 bits,
    /// `in_len` and `out_len` 12 bits each.
    FcTile {
        /// Word address of the first weight word of the tile.
        w_word: u32,
        /// Word address of the input activations.
        in_word: u16,
        /// Input activation count.
        in_len: u16,
        /// Weight rows (output channels) in this tile.
        out_len: u16,
    },
    /// Stop execution.
    Halt,
}

/// Error decoding an instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// Operand field out of range.
    BadOperand(&'static str),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            Self::BadOperand(what) => write!(f, "bad operand: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const OP_SET_BOOST: u8 = 0x01;
const OP_LOAD_W: u8 = 0x02;
const OP_LOAD_I: u8 = 0x03;
const OP_FC_TILE: u8 = 0x04;
const OP_HALT: u8 = 0xFF;

impl Instruction {
    /// Encodes to a 64-bit control word.
    #[must_use]
    pub fn encode(&self) -> u64 {
        match *self {
            Self::SetBoostConfig { mem, bank, config } => {
                (u64::from(OP_SET_BOOST) << 56)
                    | (u64::from(mem.code()) << 48)
                    | (u64::from(bank) << 40)
                    | u64::from(config)
            }
            Self::LoadWeights { dst_word, words } => {
                (u64::from(OP_LOAD_W) << 56) | (u64::from(dst_word) << 24) | u64::from(words)
            }
            Self::LoadInputs { dst_word, words } => {
                (u64::from(OP_LOAD_I) << 56) | (u64::from(dst_word) << 24) | u64::from(words)
            }
            Self::FcTile {
                w_word,
                in_word,
                in_len,
                out_len,
            } => {
                assert!(w_word < (1 << 20), "w_word exceeds 20-bit field");
                assert!(in_word < (1 << 12), "in_word exceeds 12-bit field");
                assert!(in_len < (1 << 12), "in_len exceeds 12-bit field");
                assert!(out_len < (1 << 12), "out_len exceeds 12-bit field");
                (u64::from(OP_FC_TILE) << 56)
                    | (u64::from(w_word) << 36)
                    | (u64::from(in_word) << 24)
                    | (u64::from(in_len) << 12)
                    | u64::from(out_len)
            }
            Self::Halt => u64::from(OP_HALT) << 56,
        }
    }

    /// Decodes a 64-bit control word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for unknown opcodes or invalid operand
    /// fields.
    pub fn decode(word: u64) -> Result<Self, DecodeError> {
        let op = (word >> 56) as u8;
        match op {
            OP_SET_BOOST => {
                let mem = MemoryId::from_code((word >> 48) as u8)
                    .ok_or(DecodeError::BadOperand("memory id"))?;
                let bank = (word >> 40) as u8;
                let config = word as u8;
                Ok(Self::SetBoostConfig { mem, bank, config })
            }
            OP_LOAD_W => Ok(Self::LoadWeights {
                dst_word: ((word >> 24) & 0xFFFF_FFFF) as u32,
                words: (word & 0xFF_FFFF) as u32,
            }),
            OP_LOAD_I => Ok(Self::LoadInputs {
                dst_word: ((word >> 24) & 0xFFFF_FFFF) as u32,
                words: (word & 0xFF_FFFF) as u32,
            }),
            OP_FC_TILE => Ok(Self::FcTile {
                w_word: ((word >> 36) & 0xF_FFFF) as u32,
                in_word: ((word >> 24) & 0xFFF) as u16,
                in_len: ((word >> 12) & 0xFFF) as u16,
                out_len: (word & 0xFFF) as u16,
            }),
            OP_HALT => Ok(Self::Halt),
            other => Err(DecodeError::UnknownOpcode(other)),
        }
    }

    /// Convenience constructor for `set_boost_config` from a
    /// [`BoostConfig`].
    #[must_use]
    pub fn set_boost_config(mem: MemoryId, bank: u8, config: BoostConfig) -> Self {
        Self::SetBoostConfig {
            mem,
            bank,
            config: config.mask() as u8,
        }
    }

    /// Disassembles a slice of control words into listing lines; undecodable
    /// words render as `.word` directives rather than aborting the listing.
    #[must_use]
    pub fn disassemble(words: &[u64]) -> Vec<String> {
        words
            .iter()
            .enumerate()
            .map(|(pc, &w)| match Self::decode(w) {
                Ok(i) => format!("{pc:04}: {i}"),
                Err(e) => format!("{pc:04}: .word {w:#018x} ; {e}"),
            })
            .collect()
    }
}

impl core::fmt::Display for Instruction {
    /// Assembly-style rendering, e.g.
    /// `set_boost_config weight[3], 0b0111`.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Self::SetBoostConfig { mem, bank, config } => {
                let m = match mem {
                    MemoryId::Weight => "weight",
                    MemoryId::Input => "input",
                };
                write!(f, "set_boost_config {m}[{bank}], {config:#06b}")
            }
            Self::LoadWeights { dst_word, words } => {
                write!(f, "load_weights @{dst_word}, {words} words")
            }
            Self::LoadInputs { dst_word, words } => {
                write!(f, "load_inputs @{dst_word}, {words} words")
            }
            Self::FcTile {
                w_word,
                in_word,
                in_len,
                out_len,
            } => {
                write!(
                    f,
                    "fc_tile w@{w_word}, x@{in_word}, in={in_len}, out={out_len}"
                )
            }
            Self::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_boost_config_round_trips() {
        for mem in [MemoryId::Weight, MemoryId::Input] {
            for bank in [0u8, 3, 17] {
                for config in [0u8, 0b1111, 0b0101] {
                    let i = Instruction::SetBoostConfig { mem, bank, config };
                    assert_eq!(Instruction::decode(i.encode()), Ok(i));
                }
            }
        }
    }

    #[test]
    fn load_instructions_round_trip() {
        let i = Instruction::LoadWeights {
            dst_word: 12_345,
            words: 678,
        };
        assert_eq!(Instruction::decode(i.encode()), Ok(i));
        let i = Instruction::LoadInputs {
            dst_word: 99,
            words: 1,
        };
        assert_eq!(Instruction::decode(i.encode()), Ok(i));
    }

    #[test]
    fn fc_tile_round_trips() {
        let i = Instruction::FcTile {
            w_word: 16_383,
            in_word: 98,
            in_len: 784,
            out_len: 256,
        };
        assert_eq!(Instruction::decode(i.encode()), Ok(i));
        let max = Instruction::FcTile {
            w_word: (1 << 20) - 1,
            in_word: (1 << 12) - 1,
            in_len: (1 << 12) - 1,
            out_len: (1 << 12) - 1,
        };
        assert_eq!(Instruction::decode(max.encode()), Ok(max));
    }

    #[test]
    #[should_panic(expected = "exceeds 20-bit field")]
    fn oversized_fc_tile_rejected() {
        let _ = Instruction::FcTile {
            w_word: 1 << 20,
            in_word: 0,
            in_len: 1,
            out_len: 1,
        }
        .encode();
    }

    #[test]
    fn halt_round_trips() {
        assert_eq!(
            Instruction::decode(Instruction::Halt.encode()),
            Ok(Instruction::Halt)
        );
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        assert_eq!(
            Instruction::decode(0xAB << 56),
            Err(DecodeError::UnknownOpcode(0xAB))
        );
    }

    #[test]
    fn bad_memory_id_is_rejected() {
        // opcode SET_BOOST with memory code 7.
        let word = (u64::from(0x01u8) << 56) | (7u64 << 48);
        assert_eq!(
            Instruction::decode(word),
            Err(DecodeError::BadOperand("memory id"))
        );
    }

    #[test]
    fn from_boost_config_uses_the_mask() {
        let cfg = BoostConfig::from_level(3, 4);
        let i = Instruction::set_boost_config(MemoryId::Weight, 2, cfg);
        assert_eq!(
            i,
            Instruction::SetBoostConfig {
                mem: MemoryId::Weight,
                bank: 2,
                config: 0b0111
            }
        );
    }

    #[test]
    fn display_reads_like_assembly() {
        let i = Instruction::SetBoostConfig {
            mem: MemoryId::Weight,
            bank: 3,
            config: 0b0111,
        };
        assert_eq!(format!("{i}"), "set_boost_config weight[3], 0b0111");
        let t = Instruction::FcTile {
            w_word: 5,
            in_word: 2,
            in_len: 784,
            out_len: 83,
        };
        assert_eq!(format!("{t}"), "fc_tile w@5, x@2, in=784, out=83");
        assert_eq!(format!("{}", Instruction::Halt), "halt");
    }

    #[test]
    fn disassemble_survives_bad_words() {
        let good = Instruction::LoadInputs {
            dst_word: 1,
            words: 2,
        }
        .encode();
        let listing = Instruction::disassemble(&[good, 0xAB00_0000_0000_0000]);
        assert_eq!(listing.len(), 2);
        assert!(listing[0].contains("load_inputs"));
        assert!(listing[1].contains(".word") && listing[1].contains("unknown opcode"));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(format!("{}", DecodeError::UnknownOpcode(0xAB)).contains("0xab"));
        assert!(format!("{}", DecodeError::BadOperand("x")).contains('x'));
    }
}
