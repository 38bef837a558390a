#include "obs/chrome_trace.hpp"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/analysis.hpp"

namespace parc::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Microsecond timestamp with ns precision, as trace-event "ts" expects.
void append_ts(std::string& out, std::uint64_t t_ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u",
                t_ns / 1000, static_cast<unsigned>(t_ns % 1000));
  out += buf;
}

}  // namespace

void write_chrome_trace(const TraceDump& dump, std::ostream& os) {
  std::string out;
  out.reserve(256 + dump.total_events() * 96);
  out += "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Thread-name metadata so Perfetto shows "ptask-w0", "edt", ...
  for (const auto& track : dump.tracks) {
    comma();
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":";
    out += std::to_string(track.tid);
    out += ",\"args\":{\"name\":\"";
    append_escaped(out, track.name);
    out += "\"}}";
  }

  // Anchor each task id's start/finish so dependence edges can be drawn as
  // flow events between the right (track, time) points.
  const auto tasks = pair_spans(dump, EventKind::kTaskStart);

  std::uint64_t flow_id = 0;
  for (const auto& track : dump.tracks) {
    for (const Event& e : track.events) {
      const EventKindInfo info = event_kind_info(e.kind);
      comma();
      out += "{\"ph\":\"";
      out += info.ph;
      out += "\",\"name\":\"";
      out += info.name;
      if (info.with_id) {
        out += '#';
        out += std::to_string(e.id);
      }
      out += "\",\"cat\":\"";
      out += info.cat;
      out += "\",\"ts\":";
      append_ts(out, e.t_ns);
      out += ",\"pid\":1,\"tid\":";
      out += std::to_string(track.tid);
      if (info.ph[0] == 'i') out += ",\"s\":\"t\"";
      out += ",\"args\":{\"id\":";
      out += std::to_string(e.id);
      out += ",\"arg\":";
      out += std::to_string(e.arg);
      out += "}}";

      // Channel push/pop carry occupancy-after in `arg`; mirror each one as
      // a Chrome counter sample so Perfetto draws a per-channel occupancy
      // track ("C" events aggregate per name, not per tid).
      if (e.kind == EventKind::kChanPush || e.kind == EventKind::kChanPop) {
        comma();
        out += "{\"ph\":\"C\",\"name\":\"chan#";
        out += std::to_string(e.id);
        out += " occupancy\",\"cat\":\"flow\",\"ts\":";
        append_ts(out, e.t_ns);
        out += ",\"pid\":1,\"args\":{\"occupancy\":";
        out += std::to_string(e.arg);
        out += "}}";
      }

      // A dependence edge additionally emits a flow arrow when both ends
      // were recorded (predecessor finish → successor start).
      if (e.kind == EventKind::kDepEdge) {
        const auto from = tasks.find(e.id);
        const auto to = tasks.find(e.arg);
        if (from != tasks.end() && from->second.has_end &&
            to != tasks.end() && to->second.has_begin) {
          const std::uint64_t fid = flow_id++;
          comma();
          out += "{\"ph\":\"s\",\"name\":\"dep\",\"cat\":\"dep\",\"id\":";
          out += std::to_string(fid);
          out += ",\"ts\":";
          append_ts(out, from->second.end_ns);
          out += ",\"pid\":1,\"tid\":";
          out += std::to_string(from->second.end_tid);
          out += "}";
          comma();
          out += "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"dep\",\"cat\":\"dep\",\"id\":";
          out += std::to_string(fid);
          out += ",\"ts\":";
          append_ts(out, to->second.begin_ns);
          out += ",\"pid\":1,\"tid\":";
          out += std::to_string(to->second.begin_tid);
          out += "}";
        }
      }
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  os << out;
}

// ---------------------------------------------------------------------------
// Reader: the inverse of write_chrome_trace, built on a minimal DOM parser
// for the subset of JSON the writer produces (objects, arrays, strings,
// numbers). Every runtime event round-trips exactly — kind from the
// (ph, name-stem, cat) triple, id/arg from the args object, t_ns from the
// microsecond "ts" with its three fractional digits.
// ---------------------------------------------------------------------------

namespace {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  Type type = Type::kNull;
  double number = 0.0;
  bool boolean = false;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("chrome trace parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        v.boolean = peek() == 't';
        literal(v.boolean ? "true" : "false");
        return v;
      }
      case 'n': {
        literal("null");
        return JsonValue{};
      }
      default: return number();
    }
  }

  void literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c) {
      if (pos_ >= text_.size() || text_[pos_] != *c) fail("bad literal");
      ++pos_;
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The writer only escapes control characters; anything else is
          // mapped through as a single byte (good enough for labels).
          out.push_back(static_cast<char>(code < 0x80 ? code : '?'));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("unparseable number");
    }
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

std::string triple_key(std::string_view ph, std::string_view name,
                       std::string_view cat) {
  std::string key(ph);
  key += '\x1f';
  key += name;
  key += '\x1f';
  key += cat;
  return key;
}

/// Inverse of the kind table: (ph, name-stem, cat) → EventKind.
const std::unordered_map<std::string, EventKind>& kind_by_triple() {
  static const auto* map = [] {
    auto* m = new std::unordered_map<std::string, EventKind>;
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
      const EventKindInfo& row = kEventKindTable[k];
      m->emplace(triple_key(row.ph, row.name, row.cat),
                 static_cast<EventKind>(k));
    }
    return m;
  }();
  return *map;
}

double require_number(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) {
    throw std::runtime_error("chrome trace: missing numeric \"" + key + "\"");
  }
  return v->number;
}

/// `v` as an unsigned integer below `limit`. Negative, non-finite or
/// too-large values throw: casting them would be undefined behaviour.
std::uint64_t checked_uint(double v, const std::string& key,
                           double limit = 0x1p64) {
  if (!(v >= 0.0 && v < limit)) {
    throw std::runtime_error("chrome trace: \"" + key + "\" out of range");
  }
  return static_cast<std::uint64_t>(v);
}

std::uint32_t require_tid(const JsonValue& record) {
  return static_cast<std::uint32_t>(
      checked_uint(require_number(record, "tid"), "tid", 0x1p32));
}

}  // namespace

TraceDump read_chrome_trace(std::istream& is) {
  std::string text(std::istreambuf_iterator<char>(is), {});
  const JsonValue root = JsonParser(std::move(text)).parse();
  if (root.type != JsonValue::Type::kObject) {
    throw std::runtime_error("chrome trace: top level is not an object");
  }
  const JsonValue* events = root.get("traceEvents");
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    throw std::runtime_error("chrome trace: no traceEvents array");
  }

  TraceDump dump;
  std::unordered_map<std::uint32_t, std::size_t> track_of_tid;
  auto track_for = [&](std::uint32_t tid) -> ThreadTrack& {
    const auto [it, inserted] = track_of_tid.emplace(tid, dump.tracks.size());
    if (inserted) {
      ThreadTrack t;
      t.tid = tid;
      t.name = "thread-" + std::to_string(tid);
      dump.tracks.push_back(std::move(t));
    }
    return dump.tracks[it->second];
  };

  for (const JsonValue& record : events->array) {
    if (record.type != JsonValue::Type::kObject) {
      throw std::runtime_error("chrome trace: non-object trace event");
    }
    const JsonValue* ph = record.get("ph");
    const JsonValue* name = record.get("name");
    if (ph == nullptr || name == nullptr) continue;

    if (ph->string == "M") {
      if (name->string == "thread_name") {
        const JsonValue* args = record.get("args");
        const JsonValue* label =
            args != nullptr ? args->get("name") : nullptr;
        ThreadTrack& track = track_for(require_tid(record));
        if (label != nullptr) track.name = label->string;
      }
      continue;
    }
    // Derived records: counter samples and dependence flow arrows are
    // re-derivable from the events themselves.
    if (ph->string == "C" || ph->string == "s" || ph->string == "f") continue;

    const JsonValue* cat = record.get("cat");
    if (cat == nullptr) continue;
    const std::string stem = name->string.substr(0, name->string.find('#'));
    const auto it =
        kind_by_triple().find(triple_key(ph->string, stem, cat->string));
    if (it == kind_by_triple().end()) continue;  // foreign tooling event

    const JsonValue* args = record.get("args");
    if (args == nullptr || args->get("id") == nullptr ||
        args->get("arg") == nullptr) {
      throw std::runtime_error("chrome trace: event without args.id/args.arg");
    }
    Event e;
    e.kind = it->second;
    e.t_ns = checked_uint(std::round(require_number(record, "ts") * 1000.0),
                          "ts");
    e.id = checked_uint(require_number(*args, "id"), "args.id");
    e.arg = checked_uint(require_number(*args, "arg"), "args.arg");
    track_for(require_tid(record)).events.push_back(e);
  }
  return dump;
}

}  // namespace parc::obs
