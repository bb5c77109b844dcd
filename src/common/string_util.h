#ifndef HER_COMMON_STRING_UTIL_H_
#define HER_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace her {

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// ASCII character classes. They equal std::isupper/islower/isdigit/isalnum
/// in the C locale (the only locale HER runs in); bytes >= 0x80 are in none.
constexpr bool IsAsciiUpper(char c) { return c >= 'A' && c <= 'Z'; }
constexpr bool IsAsciiLower(char c) { return c >= 'a' && c <= 'z'; }
constexpr bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool IsAsciiAlnum(char c) {
  return IsAsciiUpper(c) || IsAsciiLower(c) || IsAsciiDigit(c);
}

/// The one token-boundary rule of WordTokens: calls fn(token) for each
/// token of `s` in order, as a view into `s` with its case as written.
/// A token is a maximal run of ASCII letters and digits, also split before
/// an upper-case letter that follows a lower-case letter or a digit
/// ("factorySite" -> "factory", "Site"; "gen7X" -> "gen7", "X"). Every
/// other byte, including each byte >= 0x80, is a separator.
template <typename Fn>
void ForEachWordToken(std::string_view s, Fn&& fn) {
  const size_t n = s.size();
  size_t i = 0;
  while (true) {
    while (i < n && !IsAsciiAlnum(s[i])) ++i;
    if (i == n) return;
    const size_t start = i++;
    while (i < n && IsAsciiAlnum(s[i]) &&
           !(IsAsciiUpper(s[i]) &&
             (IsAsciiLower(s[i - 1]) || IsAsciiDigit(s[i - 1])))) {
      ++i;
    }
    fn(s.substr(start, i - start));
  }
}

/// Lowercased alphanumeric word tokens; camelCase, snake_case and
/// punctuation boundaries all split ("factorySite" -> {"factory","site"},
/// "made_in" -> {"made","in"}). This is the canonical tokenizer used by the
/// ML substrate so that relational attribute names and graph predicates
/// land in the same token space. ForEachWordToken plus a lowercasing copy.
std::vector<std::string> WordTokens(std::string_view s);

/// One case-folded word token, as a view into its string: the first 8
/// lowercased bytes big-endian and zero-padded in `head`, so most
/// comparisons stop at one integer compare.
struct WordToken {
  uint64_t head;
  const char* data;
  uint32_t size;
};

/// The distinct WordTokens of one string, sorted and de-duplicated without
/// copying: each token is a view into the string, compared ASCII
/// case-insensitively. The string must outlive the set. Up to kInline
/// tokens live inside the object; a longer string (e.g. Magellan's
/// flattened documents) spills them to one heap vector.
class WordTokenSet {
 public:
  static constexpr size_t kInline = 16;

  explicit WordTokenSet(std::string_view s);

  size_t size() const { return size_; }

  friend double TokenJaccard(const WordTokenSet& a, const WordTokenSet& b);

 private:
  const WordToken* tokens() const {
    return heap_.empty() ? inline_ : heap_.data();
  }

  // Only the first size_ entries are ever read (none once spilled), so the
  // array is left uninitialized: zeroing it costs about a tenth of a score.
  WordToken inline_[kInline];
  std::vector<WordToken> heap_;
  size_t size_ = 0;
};

/// |A n B| / |A u B| of the two token sets; 1.0 when both are empty.
/// Allocates nothing.
double TokenJaccard(const WordTokenSet& a, const WordTokenSet& b);

/// Lowercased character n-grams of the concatenated word tokens (padded with
/// '#'). Used for char-level feature hashing and the JedAI-style baseline.
std::vector<std::string> CharNgrams(std::string_view s, int n);

/// Levenshtein edit distance (O(len_a * len_b) with two rows).
size_t EditDistance(std::string_view a, std::string_view b);

/// 1 - EditDistance / max(len); 1.0 for two empty strings.
double NormalizedEditSimilarity(std::string_view a, std::string_view b);

/// Jaccard similarity of the two strings' WordTokens sets; 1.0 when both
/// have no token. Allocates nothing unless a string has more than
/// WordTokenSet::kInline tokens, and classifies bytes as ASCII in the C
/// locale, exactly as WordTokens does.
double TokenJaccard(std::string_view a, std::string_view b);

/// Parses a decimal double; returns false on malformed input.
bool ParseDouble(std::string_view s, double* out);

/// Formats a double compactly (up to 6 significant digits).
std::string FormatDouble(double v);

}  // namespace her

#endif  // HER_COMMON_STRING_UTIL_H_
