#include "text/tokenizer.h"

#include <cctype>

#include "util/logging.h"
#include "util/string_util.h"

namespace explainti::text {

namespace {

bool IsPunct(char c) {
  return std::ispunct(static_cast<unsigned char>(c)) != 0;
}

/// Greedy longest-match WordPiece decomposition of a single word.
/// Returns false when some position cannot be matched at all.
bool GreedyWordPiece(const Vocab& vocab, const std::string& word,
                     std::vector<std::string>* pieces) {
  size_t start = 0;
  while (start < word.size()) {
    size_t end = word.size();
    bool found = false;
    std::string match;
    while (end > start) {
      std::string candidate = word.substr(start, end - start);
      if (start > 0) candidate = "##" + candidate;
      if (vocab.Contains(candidate)) {
        match = candidate;
        found = true;
        break;
      }
      --end;
    }
    if (!found) return false;
    pieces->push_back(match);
    start = end;
  }
  return true;
}

}  // namespace

std::vector<std::string> BasicTokenize(const std::string& text) {
  const std::string lower = util::ToLower(text);
  std::vector<std::string> out;
  std::string current;
  auto flush = [&]() {
    if (!current.empty()) {
      out.push_back(current);
      current.clear();
    }
  };
  for (char c : lower) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      flush();
    } else if (IsPunct(c) && c != '\'') {
      flush();
      out.emplace_back(1, c);
    } else {
      current.push_back(c);
    }
  }
  flush();
  return out;
}

std::vector<std::string> WordPieceTokenizer::Tokenize(
    const std::string& text) const {
  std::vector<std::string> out;
  for (const std::string& word : BasicTokenize(text)) {
    std::vector<std::string> pieces;
    if (vocab_->Contains(word)) {
      out.push_back(word);
    } else if (GreedyWordPiece(*vocab_, word, &pieces)) {
      out.insert(out.end(), pieces.begin(), pieces.end());
    } else {
      out.push_back(SpecialTokens::Name(SpecialTokens::kUnk));
    }
  }
  return out;
}

std::vector<std::string> ByteFallbackTokenizer::Tokenize(
    const std::string& text) const {
  std::vector<std::string> out;
  for (const std::string& word : BasicTokenize(text)) {
    std::vector<std::string> pieces;
    if (vocab_->Contains(word)) {
      out.push_back(word);
      continue;
    }
    if (GreedyWordPiece(*vocab_, word, &pieces)) {
      out.insert(out.end(), pieces.begin(), pieces.end());
      continue;
    }
    // Byte-level fallback: emit each character; unknown characters map to
    // [UNK] at encode time but the character tokens built into every vocab
    // make that rare.
    for (size_t i = 0; i < word.size(); ++i) {
      std::string piece(1, word[i]);
      if (i > 0) piece = "##" + piece;
      out.push_back(piece);
    }
  }
  return out;
}

std::unique_ptr<Tokenizer> MakeTokenizer(const std::string& base_model,
                                         std::shared_ptr<const Vocab> vocab) {
  if (base_model == "bert") {
    return std::make_unique<WordPieceTokenizer>(std::move(vocab));
  }
  if (base_model == "roberta") {
    return std::make_unique<ByteFallbackTokenizer>(std::move(vocab));
  }
  LOG(FATAL) << "unknown base model: " << base_model;
  return nullptr;
}

}  // namespace explainti::text
