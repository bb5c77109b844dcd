#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace her {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::vector<std::string> WordTokens(std::string_view s) {
  std::vector<std::string> out;
  ForEachWordToken(s,
                   [&](std::string_view tok) { out.push_back(ToLower(tok)); });
  return out;
}

namespace {

// Token bytes are ASCII letters and digits only; setting bit 0x20 lowercases
// a letter and leaves a digit unchanged.
inline unsigned char FoldCase(char c) {
  return static_cast<unsigned char>(c) | 0x20;
}

WordToken MakeToken(std::string_view tok) {
  WordToken t{0, tok.data(), static_cast<uint32_t>(tok.size())};
  const size_t n = std::min<size_t>(tok.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    t.head |= static_cast<uint64_t>(FoldCase(tok[i])) << (56 - 8 * i);
  }
  return t;
}

// Lexicographic order of the lowercased tokens. Tokens hold no zero byte,
// so equal heads of two tokens of at most 8 bytes mean equal tokens, and a
// head of 8 non-zero bytes means the token is at least 8 bytes long.
int Compare(const WordToken& a, const WordToken& b) {
  if (a.head != b.head) return a.head < b.head ? -1 : 1;
  const uint32_t n = std::min(a.size, b.size);
  for (uint32_t i = 8; i < n; ++i) {
    const unsigned char ca = FoldCase(a.data[i]);
    const unsigned char cb = FoldCase(b.data[i]);
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size == b.size) return 0;
  return a.size < b.size ? -1 : 1;
}

// Sorts [first, first + n) and drops repeated tokens; returns the count
// left.
size_t SortUnique(WordToken* first, size_t n) {
  if (n < 2) return n;
  WordToken* last = first + n;
  std::sort(first, last, [](const WordToken& a, const WordToken& b) {
    return Compare(a, b) < 0;
  });
  return std::unique(first, last,
                     [](const WordToken& a, const WordToken& b) {
                       return Compare(a, b) == 0;
                     }) -
         first;
}

// |A n B| / |A u B| of two sorted, de-duplicated token lists by a merge;
// 1.0 when both are empty.
double MergeJaccard(const WordToken* a, size_t na, const WordToken* b,
                    size_t nb) {
  if (na == 0 && nb == 0) return 1.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < na && j < nb) {
    const int c = Compare(a[i], b[j]);
    if (c <= 0) ++i;
    if (c >= 0) ++j;
    if (c == 0) ++inter;
  }
  const size_t uni = na + nb - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace

WordTokenSet::WordTokenSet(std::string_view s) {
  ForEachWordToken(s, [&](std::string_view tok) {
    const WordToken t = MakeToken(tok);
    if (size_ < kInline) {
      inline_[size_] = t;
    } else {
      if (size_ == kInline) heap_.assign(inline_, inline_ + kInline);
      heap_.push_back(t);
    }
    ++size_;
  });
  size_ = SortUnique(heap_.empty() ? inline_ : heap_.data(), size_);
}

double TokenJaccard(const WordTokenSet& a, const WordTokenSet& b) {
  return MergeJaccard(a.tokens(), a.size_, b.tokens(), b.size_);
}

std::vector<std::string> CharNgrams(std::string_view s, int n) {
  std::vector<std::string> out;
  if (n <= 0) return out;
  const auto tokens = WordTokens(s);
  if (tokens.empty()) return out;
  std::string norm = "#";
  for (const auto& tok : tokens) {
    norm += tok;
    norm += '#';
  }
  if (static_cast<int>(norm.size()) < n) {
    out.push_back(norm);
    return out;
  }
  for (size_t i = 0; i + n <= norm.size(); ++i) {
    out.push_back(norm.substr(i, n));
  }
  return out;
}

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<size_t> prev(a.size() + 1);
  std::vector<size_t> cur(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      const size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

double NormalizedEditSimilarity(std::string_view a, std::string_view b) {
  const size_t m = std::max(a.size(), b.size());
  if (m == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) / static_cast<double>(m);
}

double TokenJaccard(std::string_view a, std::string_view b) {
  return TokenJaccard(WordTokenSet(a), WordTokenSet(b));
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace her
