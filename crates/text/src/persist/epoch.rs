//! The epoch file (`KIND_EPOCH`): the vocabulary (`VOCB`) and the frozen
//! statistics (`STAT`) every segment and document of a lineage is scored
//! under.

use super::container::{ByteReader, Container, KIND_EPOCH, assemble, put_str, put_u64, put_varint};
use super::{MAX_STORED_VALUE, SnapshotError};
use crate::corpus::Corpus;
use crate::document::TermId;
use crate::vocab::Vocabulary;

const TAG_VOCAB: [u8; 4] = *b"VOCB";
const TAG_STATS: [u8; 4] = *b"STAT";

pub(super) fn epoch_to_bytes(c: &Corpus) -> Vec<u8> {
    let (v, mut vocab) = (c.vocab(), Vec::new());
    put_varint(&mut vocab, v.len() as u64);
    for id in 0..v.len() as TermId {
        put_str(&mut vocab, v.term(id));
    }
    assemble(
        KIND_EPOCH,
        vec![(TAG_VOCAB, vocab), (TAG_STATS, stats_payload(c))],
    )
}

/// Decodes an epoch file's sections: the vocabulary, then every
/// document frequency and every IDF weight.
pub(super) fn read_epoch(
    c: &mut Container<'_>,
) -> Result<(Vocabulary, Vec<u32>, Vec<f64>), SnapshotError> {
    let mut r = c.section(TAG_VOCAB, "vocabulary section")?;
    // A term is at least its one-byte length.
    let n = r.counted(1)?;
    let mut terms = Vec::with_capacity(n);
    for _ in 0..n {
        terms.push(r.str()?.to_owned());
    }
    let vocab = Vocabulary::from_terms(terms).ok_or(SnapshotError::Malformed {
        // A duplicate term would silently renumber every id after it.
        context: "duplicate term in vocabulary",
    })?;
    r.finish()?;
    let (doc_freq, idf) = read_stats(c.section(TAG_STATS, "statistics section")?, vocab.len())?;
    Ok((vocab, doc_freq, idf))
}

/// Epoch statistics payload: the term count, every document frequency
/// as LEB128, then every IDF weight as its [`f64::to_bits`] word —
///
/// ```text
/// n:leb  doc_freq:leb×n  idf:u64×n
/// ```
fn stats_payload(c: &Corpus) -> Vec<u8> {
    let mut buf = Vec::new();
    let n = c.num_terms();
    put_varint(&mut buf, n as u64);
    for t in 0..n as TermId {
        put_varint(&mut buf, u64::from(c.doc_freq(t)));
    }
    for &idf in c.idf_table() {
        put_u64(&mut buf, idf.to_bits());
    }
    buf
}

fn read_stats(
    mut r: ByteReader<'_>,
    num_terms: usize,
) -> Result<(Vec<u32>, Vec<f64>), SnapshotError> {
    // A term's statistics are at least a one-byte df and an 8-byte IDF.
    let n = r.counted(9)?;
    if n != num_terms {
        return Err(SnapshotError::Malformed {
            context: "statistics table size disagrees with the vocabulary",
        });
    }
    let mut doc_freq = Vec::with_capacity(n);
    for _ in 0..n {
        doc_freq.push(r.varint_u32()?);
    }
    // One bounds check for the IDF table, then a chunked decode.
    let mut idf = Vec::with_capacity(n);
    let raw_idf = r.take(n * 8)?;
    for b in raw_idf.chunks_exact(8) {
        let v = f64::from_bits(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]));
        if !v.is_finite() || !(0.0..=MAX_STORED_VALUE).contains(&v) {
            // Scores built on a negative IDF panic `Score::new` at query
            // time, and an implausibly huge one overflows the query-time
            // sum to +inf (same panic) — reject both at the door, like
            // every other CRC-valid-but-inconsistent payload.
            return Err(SnapshotError::Malformed {
                context: "IDF weight outside the plausible range",
            });
        }
        idf.push(v);
    }
    r.finish()?;
    Ok((doc_freq, idf))
}

#[cfg(test)]
mod tests {
    use super::super::tests::assert_malformed;
    use super::*;

    #[test]
    fn implausibly_large_idf_is_rejected_even_with_a_valid_crc() {
        // Each value individually finite is not enough: 1e200 + 1e200
        // at query time is +inf → `Score::new` panic. The plausibility
        // cap stops the forged table at decode.
        let mut b = crate::corpus::CorpusBuilder::with_synthetic_vocab(2);
        b.add_tokens("d".into(), vec![0, 1]);
        let good = b.build();
        let forged = Corpus::from_parts(
            good.vocab().clone(),
            good.doc_store().clone(),
            vec![1, 1],
            vec![1e200, 1e200],
        );
        let bytes = epoch_to_bytes(&forged);
        let mut epoch = Container::open(&bytes, &[KIND_EPOCH], false).unwrap().0;
        assert_malformed(vec![("an IDF of 1e200", read_epoch(&mut epoch), "IDF")]);
    }
}
