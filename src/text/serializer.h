#ifndef EXPLAINTI_TEXT_SERIALIZER_H_
#define EXPLAINTI_TEXT_SERIALIZER_H_

#include <string>
#include <vector>

#include "text/tokenizer.h"

namespace explainti::text {

/// Raw material for serialising one column (Section II-B of the paper).
struct ColumnText {
  std::string title;               ///< Table title p.
  std::string header;              ///< Column header h_i.
  std::vector<std::string> cells;  ///< Cell values v_1..v_m.
};

/// A serialised, tokenised sample ready for the encoder.
struct EncodedSequence {
  std::vector<int> ids;             ///< Token ids, starts with [CLS].
  std::vector<int> segments;        ///< 0 for first sentence, 1 for second.
  std::vector<std::string> tokens;  ///< Token strings (for explanations).
  /// Index of the first [SEP]; for pairs this separates the two columns
  /// (Algorithm 1 iterates windows on each side of it).
  int sep_pos = -1;
};

/// Serialises columns and column pairs into BERT-style sequences:
///   S(c)        = [CLS] title p header h cell v1 ... vm [SEP]
///   S(c_i,c_j)  = [CLS] title p header h_i cell v^i... [SEP]
///                 header h_j cell v^j... [SEP]
///
/// `dedup_cells` implements the paper's PP pre-processing step (choose
/// unduplicated cell values, Section IV-D). Sequences are truncated to
/// `max_len` tokens, always ending with [SEP].
class SequenceSerializer {
 public:
  SequenceSerializer(const Tokenizer* tokenizer, int max_len,
                     bool dedup_cells = false);

  /// Serialises a single column for the type-prediction task.
  EncodedSequence SerializeColumn(const ColumnText& column) const;

  /// Serialises a column pair for the relation-prediction task. The two
  /// columns share the table title, which is emitted once.
  EncodedSequence SerializePair(const ColumnText& left,
                                const ColumnText& right) const;

 private:
  /// Appends the tokenisation of `text` to ids/tokens with segment id
  /// `segment`, stopping at the token budget.
  void AppendText(const std::string& text, int segment, EncodedSequence* seq,
                  int budget) const;
  void AppendSpecial(int id, int segment, EncodedSequence* seq) const;
  std::vector<std::string> MaybeDedup(
      const std::vector<std::string>& cells) const;

  const Tokenizer* tokenizer_;  // Not owned.
  int max_len_;
  bool dedup_cells_;
};

/// Incremental builder for custom serialisations (used by the TaBERT and
/// TURL baselines, whose input layouts differ from S(c)).
class SequenceBuilder {
 public:
  SequenceBuilder(const Tokenizer* tokenizer, int max_len);

  /// Appends a special token ([CLS], [SEP], ...).
  void AddSpecial(int id, int segment);

  /// Appends the tokenisation of `text`; silently stops at the token
  /// budget (one slot is always reserved for the final [SEP]).
  void AddText(const std::string& text, int segment);

  /// Remaining token budget (excluding the reserved final [SEP]).
  int Remaining() const;

  /// Finalises: guarantees a trailing [SEP] and sets sep_pos to the first
  /// [SEP] in the sequence.
  EncodedSequence Build();

 private:
  const Tokenizer* tokenizer_;
  int max_len_;
  EncodedSequence seq_;
};

}  // namespace explainti::text

#endif  // EXPLAINTI_TEXT_SERIALIZER_H_
