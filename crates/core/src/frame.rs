//! Shared CRC-64 framing helpers.
//!
//! Every durable or wire format in this crate seals its bytes the same
//! way: a body, then the CRC-64/XZ of everything before it, little-endian.
//! The WAL frames (`crate::wal`), the `PLNRIDX3`/`PLNRSHD1` snapshot
//! sections (`crate::persist`), the `PLNRSHP1` replication messages
//! (`crate::replicate`), and the `PLNRQRY1` query-service protocol
//! (`planar-serve`) all share the helpers here instead of hand-rolling
//! the trailer arithmetic per format — one place to get the length
//! bounds and the checksum right.
//!
//! # The checksum
//!
//! [`crc64`] is CRC-64/XZ (reflected ECMA-182 polynomial, initial value
//! and final XOR all ones) computed by slicing-by-8 (Kounavis & Berry,
//! ISCC 2005): eight 256-entry `u64` tables — 16 KiB, built at compile
//! time by `slice_tables` — let each step fold 8 input bytes with one
//! 8-byte load and eight independent table lookups; the last `len % 8`
//! bytes go through the first table one at a time. It computes exactly
//! the value the textbook bit-at-a-time loop computes (the tests keep
//! that loop as an oracle), so no sealed byte on disk or on the wire
//! depends on which one ran. Pinned to one CPU of a 2-vCPU x86-64 VM
//! (criterion bench `frame`), it runs at ~1.4 GB/s from 142 B to 1 MiB,
//! against ~125 MB/s for the bit-serial loop it replaced: sealing a
//! 33 KB query answer takes ~23 µs instead of ~265 µs.

use bytes::BufMut;

/// Reflected ECMA-182 polynomial of CRC-64/XZ.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// The slicing-by-8 tables: `t[0][b]` is the CRC register after shifting
/// the single byte `b` through it, and `t[k][b]` is that register after
/// `k` further zero bytes, so the byte `k` places before the end of an
/// 8-byte group is folded by `t[k]`.
const fn slice_tables() -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u64; 256]; 8] = slice_tables();

/// CRC-64/XZ (reflected ECMA-182) of `data` — the integrity checksum every
/// framed format in this workspace uses.
pub fn crc64(data: &[u8]) -> u64 {
    let t = &TABLES;
    let mut crc = !0u64;
    let mut groups = data.chunks_exact(8);
    for group in &mut groups {
        let x = crc ^ u64::from_le_bytes(group.try_into().expect("8-byte group"));
        crc = t[7][(x & 0xFF) as usize]
            ^ t[6][((x >> 8) & 0xFF) as usize]
            ^ t[5][((x >> 16) & 0xFF) as usize]
            ^ t[4][((x >> 24) & 0xFF) as usize]
            ^ t[3][((x >> 32) & 0xFF) as usize]
            ^ t[2][((x >> 40) & 0xFF) as usize]
            ^ t[1][((x >> 48) & 0xFF) as usize]
            ^ t[0][(x >> 56) as usize];
    }
    for &byte in groups.remainder() {
        crc = t[0][((crc ^ byte as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Number of bytes a CRC-64 seal appends.
pub const CRC_LEN: usize = 8;

/// Seal a byte buffer in place: append the little-endian CRC-64 of its
/// current contents. The result round-trips through [`open_sealed`].
pub fn seal_vec(buf: &mut Vec<u8>) {
    let crc = crc64(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Seal a [`bytes::BytesMut`]-style builder in place (same trailer as
/// [`seal_vec`], for call sites that build with `BufMut`).
pub fn seal_buf<B: BufMut + AsRef<[u8]>>(buf: &mut B) {
    let crc = crc64(buf.as_ref());
    buf.put_u64_le(crc);
}

/// Verify a sealed region and return its body, or `None` when the region
/// is too short to hold a seal or its trailing CRC does not match the
/// body. The caller decides whether `None` means "torn tail", "corrupt
/// section", or "drop the message".
pub fn open_sealed(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < CRC_LEN {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - CRC_LEN);
    let stored = u64::from_le_bytes(tail.try_into().ok()?);
    (crc64(body) == stored).then_some(body)
}

/// Length-bounded end offset of a sealed region that starts at `start`
/// and carries `body_len` body bytes inside a buffer of `total` bytes:
/// `Some(end_of_seal)` only when `start + body_len + CRC_LEN` fits with
/// no overflow. A corrupted length field can therefore never index past
/// the buffer or wrap `usize`.
pub fn sealed_end(start: usize, body_len: usize, total: usize) -> Option<usize> {
    let end = start.checked_add(body_len)?.checked_add(CRC_LEN)?;
    (end <= total).then_some(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time definition of CRC-64/XZ: the oracle [`crc64`]
    /// must agree with on every input.
    fn crc64_bitwise(data: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &byte in data {
            crc ^= byte as u64;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc64_matches_known_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_bitwise(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn crc64_matches_bitwise_at_every_short_length() {
        let data: Vec<u8> = (0..=256u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=256 {
            assert_eq!(
                crc64(&data[..len]),
                crc64_bitwise(&data[..len]),
                "len {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn crc64_matches_bitwise_at_every_offset(
            data in prop::collection::vec(any::<u8>(), 0..=65_536usize),
        ) {
            // Every start offset mod 8, so each alignment of the 8-byte
            // groups against the tail is covered.
            for start in 0..8.min(data.len() + 1) {
                let s = &data[start..];
                prop_assert_eq!(crc64(s), crc64_bitwise(s), "start {} len {}", start, s.len());
            }
        }
    }

    #[test]
    fn seal_then_open_round_trips() {
        let mut buf = b"planar".to_vec();
        seal_vec(&mut buf);
        assert_eq!(buf.len(), 6 + CRC_LEN);
        assert_eq!(open_sealed(&buf), Some(&b"planar"[..]));
    }

    #[test]
    fn seal_buf_matches_seal_vec() {
        let mut v = b"same bytes".to_vec();
        seal_vec(&mut v);
        let mut b = bytes::BytesMut::new();
        b.put_slice(b"same bytes");
        seal_buf(&mut b);
        assert_eq!(v.as_slice(), b.as_ref());
    }

    #[test]
    fn open_rejects_any_flip() {
        let mut buf = b"payload".to_vec();
        seal_vec(&mut buf);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(open_sealed(&bad).is_none(), "flip at {i} accepted");
        }
        assert!(open_sealed(&buf[..CRC_LEN - 1]).is_none(), "short buffer");
    }

    #[test]
    fn empty_body_seals() {
        let mut buf = Vec::new();
        seal_vec(&mut buf);
        assert_eq!(open_sealed(&buf), Some(&[][..]));
    }

    #[test]
    fn sealed_end_bounds() {
        assert_eq!(sealed_end(4, 10, 22), Some(22));
        assert_eq!(sealed_end(4, 10, 21), None, "one byte short");
        assert_eq!(sealed_end(usize::MAX, 1, usize::MAX), None, "overflow");
        assert_eq!(sealed_end(0, usize::MAX, usize::MAX), None, "overflow");
    }
}
