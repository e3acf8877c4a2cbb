#include "text/vocab.h"

#include <algorithm>

#include "util/logging.h"

namespace explainti::text {

const char* SpecialTokens::Name(int id) {
  switch (id) {
    case kPad:
      return "[PAD]";
    case kUnk:
      return "[UNK]";
    case kCls:
      return "[CLS]";
    case kSep:
      return "[SEP]";
    case kMask:
      return "[MASK]";
    default:
      return "";
  }
}

Vocab::Vocab() {
  for (int id = 0; id < SpecialTokens::kCount; ++id) {
    AddToken(SpecialTokens::Name(id));
  }
}

int Vocab::AddToken(const std::string& token) {
  auto it = ids_.find(token);
  if (it != ids_.end()) return it->second;
  const int id = size();
  ids_.emplace(token, id);
  return id;
}

int Vocab::Id(const std::string& token) const {
  auto it = ids_.find(token);
  return it == ids_.end() ? SpecialTokens::kUnk : it->second;
}

bool Vocab::Contains(const std::string& token) const {
  return ids_.count(token) > 0;
}

Vocab BuildVocab(const std::unordered_map<std::string, int64_t>& counts,
                 int max_size, int64_t min_count) {
  Vocab vocab;
  // Character fallbacks first so they always fit within max_size.
  const std::string kChars =
      "abcdefghijklmnopqrstuvwxyz0123456789.-_'&/(),:%$";
  for (char c : kChars) {
    vocab.AddToken(std::string(1, c));
    vocab.AddToken(std::string("##") + c);
  }

  std::vector<std::pair<std::string, int64_t>> sorted(counts.begin(),
                                                      counts.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // Tie-break on the token for determinism.
  });
  for (const auto& [token, count] : sorted) {
    if (vocab.size() >= max_size) break;
    if (count < min_count) break;
    vocab.AddToken(token);
  }
  return vocab;
}

}  // namespace explainti::text
