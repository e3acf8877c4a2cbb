#ifndef EXPLAINTI_TEXT_VOCAB_H_
#define EXPLAINTI_TEXT_VOCAB_H_

#include <string>
#include <unordered_map>
#include <vector>

namespace explainti::text {

/// Well-known special-token ids; every Vocab places them first.
struct SpecialTokens {
  static constexpr int kPad = 0;
  static constexpr int kUnk = 1;
  static constexpr int kCls = 2;
  static constexpr int kSep = 3;
  static constexpr int kMask = 4;
  static constexpr int kCount = 5;

  static const char* Name(int id);
};

/// Bidirectional token <-> id map with BERT-style special tokens.
///
/// Ids 0..4 are reserved ([PAD], [UNK], [CLS], [SEP], [MASK]); the builder
/// appends corpus tokens after them. Immutable once built.
class Vocab {
 public:
  /// Empty vocabulary containing only the special tokens.
  Vocab();

  /// Adds `token` if absent; returns its id either way.
  int AddToken(const std::string& token);

  /// Id for `token`, or kUnk when unknown.
  int Id(const std::string& token) const;

  /// True if `token` is present.
  bool Contains(const std::string& token) const;

  /// Total size including special tokens.
  int size() const { return static_cast<int>(ids_.size()); }

 private:
  std::unordered_map<std::string, int> ids_;
};

/// Builds a vocabulary from a token-frequency histogram: keeps tokens with
/// frequency >= `min_count` (most frequent first) up to `max_size`, and
/// always includes all single ASCII characters plus their "##c"
/// continuation forms so WordPiece can decompose any word.
Vocab BuildVocab(const std::unordered_map<std::string, int64_t>& counts,
                 int max_size, int64_t min_count = 1);

}  // namespace explainti::text

#endif  // EXPLAINTI_TEXT_VOCAB_H_
