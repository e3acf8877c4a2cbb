#ifndef EXPLAINTI_TEXT_TOKENIZER_H_
#define EXPLAINTI_TEXT_TOKENIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "text/vocab.h"

namespace explainti::text {

/// Splits raw text into pre-tokens: lower-cases, splits on whitespace, and
/// breaks punctuation into standalone tokens (BERT's BasicTokenizer).
std::vector<std::string> BasicTokenize(const std::string& text);

/// Subword tokenizer interface. Two implementations mirror the paper's two
/// base models ("bert" and "roberta"); they share the greedy WordPiece
/// algorithm but differ in unknown-word handling (see each class).
class Tokenizer {
 public:
  virtual ~Tokenizer() = default;

  /// Subword token strings for `text`.
  virtual std::vector<std::string> Tokenize(const std::string& text) const = 0;

  const Vocab& vocab() const { return *vocab_; }

 protected:
  explicit Tokenizer(std::shared_ptr<const Vocab> vocab)
      : vocab_(std::move(vocab)) {}

  std::shared_ptr<const Vocab> vocab_;
};

/// BERT-style WordPiece: greedy longest-match-first with "##" continuation
/// pieces; a word with no decomposition becomes a single [UNK].
class WordPieceTokenizer : public Tokenizer {
 public:
  explicit WordPieceTokenizer(std::shared_ptr<const Vocab> vocab)
      : Tokenizer(std::move(vocab)) {}

  std::vector<std::string> Tokenize(const std::string& text) const override;
};

/// RoBERTa-flavoured tokenizer: same greedy subword matching but with
/// byte(character)-level fallback, so no token ever maps to [UNK] — the
/// practical property that distinguishes RoBERTa's byte-level BPE from
/// BERT's WordPiece at this scale.
class ByteFallbackTokenizer : public Tokenizer {
 public:
  explicit ByteFallbackTokenizer(std::shared_ptr<const Vocab> vocab)
      : Tokenizer(std::move(vocab)) {}

  std::vector<std::string> Tokenize(const std::string& text) const override;
};

/// Creates a tokenizer by base-model name: "bert" -> WordPiece,
/// "roberta" -> byte-fallback. Aborts on other names.
std::unique_ptr<Tokenizer> MakeTokenizer(const std::string& base_model,
                                         std::shared_ptr<const Vocab> vocab);

}  // namespace explainti::text

#endif  // EXPLAINTI_TEXT_TOKENIZER_H_
