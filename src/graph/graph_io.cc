#include "graph/graph_io.h"

#include <charconv>
#include <sstream>

#include "common/file_util.h"
#include "common/string_util.h"

namespace her {

std::string EscapeLabel(std::string_view label) {
  std::string out;
  out.reserve(label.size());
  for (const char c : label) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeLabel(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\') {
      out += escaped[i];
      continue;
    }
    if (i + 1 >= escaped.size()) {
      return Status::InvalidArgument("dangling escape in label");
    }
    switch (escaped[++i]) {
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        return Status::InvalidArgument("unknown escape in label");
    }
  }
  return out;
}

std::string GraphToText(const Graph& g) {
  std::string out = "her-graph v1\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out += "V ";
    out += EscapeLabel(g.label(v));
    out += '\n';
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Edge& e : g.OutEdges(v)) {
      out += "E ";
      out += std::to_string(v);
      out += ' ';
      out += std::to_string(e.dst);
      out += ' ';
      out += EscapeLabel(g.EdgeLabelName(e.label));
      out += '\n';
    }
  }
  return out;
}

namespace {

bool ParseU32(std::string_view s, uint32_t* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

}  // namespace

Result<Graph> GraphFromText(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || Trim(line) != "her-graph v1") {
    return Status::InvalidArgument("missing her-graph v1 header");
  }
  GraphBuilder builder;
  size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    // A record's label is the rest of the raw line: it may be empty or
    // start or end with spaces. Only a CRLF file's '\r' is dropped (the
    // writer escapes a label's own '\r').
    std::string_view raw = line;
    if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
    if (StartsWith(raw, "V ")) {
      HER_ASSIGN_OR_RETURN(std::string label, UnescapeLabel(raw.substr(2)));
      builder.AddVertex(label);
      continue;
    }
    if (Trim(line).empty()) continue;
    const auto err = [&](const std::string& msg) {
      return Status::InvalidArgument("line " + std::to_string(lineno) + ": " +
                                     msg);
    };
    if (StartsWith(raw, "E ")) {
      const std::string_view rest = raw.substr(2);
      const size_t sp1 = rest.find(' ');
      if (sp1 == std::string_view::npos) return err("malformed edge");
      const size_t sp2 = rest.find(' ', sp1 + 1);
      if (sp2 == std::string_view::npos) return err("malformed edge");
      uint32_t src = 0;
      uint32_t dst = 0;
      if (!ParseU32(rest.substr(0, sp1), &src) ||
          !ParseU32(rest.substr(sp1 + 1, sp2 - sp1 - 1), &dst)) {
        return err("bad vertex id");
      }
      if (src >= builder.num_vertices() || dst >= builder.num_vertices()) {
        return err("edge references unknown vertex");
      }
      HER_ASSIGN_OR_RETURN(std::string label,
                           UnescapeLabel(rest.substr(sp2 + 1)));
      builder.AddEdge(src, dst, label);
    } else {
      return err("unknown record type");
    }
  }
  return std::move(builder).Build();
}

Status SaveGraph(const Graph& g, const std::string& path, Env* env) {
  // Atomic install (tmp + fsync + rename): a crash mid-save can never
  // leave a truncated or torn graph file under the final name.
  return AtomicWriteFile(env != nullptr ? env : Env::Default(), path,
                         GraphToText(g));
}

Result<Graph> LoadGraph(const std::string& path, Env* env) {
  // ReadFileToString checks for I/O errors after reading, so a failure
  // mid-read surfaces as a Status instead of silently parsing a prefix.
  HER_ASSIGN_OR_RETURN(
      std::string text,
      ReadFileToString(env != nullptr ? env : Env::Default(), path));
  return GraphFromText(text);
}

}  // namespace her
