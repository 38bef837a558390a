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
#include <unordered_map>
#include <vector>

namespace parc::obs {

namespace {

struct KindInfo {
  const char* ph;    ///< trace-event phase: B, E, or i
  const char* name;  ///< event name stem (id appended for span kinds)
  const char* cat;
  bool with_id;      ///< append "#<id>" to the name
};

KindInfo kind_info(EventKind kind) {
  switch (kind) {
    case EventKind::kJobEnqueue:   return {"i", "enqueue", "sched", false};
    case EventKind::kExecBegin:    return {"B", "job", "sched", true};
    case EventKind::kExecEnd:      return {"E", "job", "sched", true};
    case EventKind::kSteal:        return {"i", "steal", "sched", false};
    case EventKind::kPark:         return {"i", "park", "sched", false};
    case EventKind::kUnpark:       return {"i", "unpark", "sched", false};
    case EventKind::kTaskSpawn:    return {"i", "spawn", "task", true};
    case EventKind::kTaskReady:    return {"i", "ready", "task", true};
    case EventKind::kTaskStart:    return {"B", "task", "task", true};
    case EventKind::kTaskFinish:   return {"E", "task", "task", true};
    case EventKind::kDepEdge:      return {"i", "dep", "task", false};
    case EventKind::kRegionBegin:  return {"B", "region", "pj", true};
    case EventKind::kRegionEnd:    return {"E", "region", "pj", true};
    case EventKind::kRegionFork:   return {"i", "region-fork", "pj", true};
    case EventKind::kSpawnFallback:
      return {"i", "spawn-fallback", "pj", true};
    case EventKind::kBarrierBegin: return {"B", "barrier", "pj", false};
    case EventKind::kBarrierEnd:   return {"E", "barrier", "pj", false};
    case EventKind::kEdtPost:      return {"i", "post", "gui", false};
    case EventKind::kEdtHop:       return {"i", "edt-hop", "gui", false};
    case EventKind::kEdtRunBegin:  return {"B", "event", "gui", true};
    case EventKind::kEdtRunEnd:    return {"E", "event", "gui", true};
    case EventKind::kWaiterPark:   return {"B", "join-wait", "sync", true};
    case EventKind::kWaiterWake:   return {"E", "join-wait", "sync", true};
    case EventKind::kWaiterHelp:   return {"i", "help", "sync", false};
    case EventKind::kContinuationRun:
      return {"i", "continuation", "sync", true};
    case EventKind::kContLocalPush:
      return {"i", "cont-local-push", "sched", false};
    case EventKind::kContInjectFallback:
      return {"i", "cont-inject-fallback", "sched", false};
    case EventKind::kDequeOverflow:
      return {"i", "deque-overflow", "sched", false};
    case EventKind::kStealRemote:
      return {"i", "steal-remote", "sched", false};
    case EventKind::kParkShard:
      return {"i", "park-shard", "sched", false};
    case EventKind::kServeArrive:  return {"i", "arrive", "serve", true};
    case EventKind::kServeShed:    return {"i", "shed", "serve", true};
    case EventKind::kServeHit:     return {"i", "cache-hit", "serve", true};
    case EventKind::kServeCoalesce:
      return {"i", "coalesce", "serve", true};
    case EventKind::kServeBatch:   return {"i", "batch", "serve", true};
    case EventKind::kServeExecBegin:
      return {"B", "request", "serve", true};
    case EventKind::kServeExecEnd: return {"E", "request", "serve", true};
    case EventKind::kServeDone:    return {"i", "done", "serve", true};
    case EventKind::kChanPush:     return {"i", "chan-push", "flow", true};
    case EventKind::kChanPop:      return {"i", "chan-pop", "flow", true};
    case EventKind::kChanFull:     return {"i", "chan-block", "flow", true};
    case EventKind::kChanClosed:   return {"i", "chan-closed", "flow", true};
    case EventKind::kReplicaPick:  return {"i", "replica-pick", "serve", true};
    case EventKind::kReplicaFail:  return {"i", "replica-fail", "serve", true};
    case EventKind::kEject:        return {"i", "eject", "serve", true};
    case EventKind::kProbe:        return {"i", "probe", "serve", true};
    case EventKind::kDeadlineShed:
      return {"i", "deadline-shed", "serve", true};
  }
  return {"i", "unknown", "obs", false};
}

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

struct Anchor {
  std::uint32_t tid = 0;
  std::uint64_t t_ns = 0;
  bool set = false;
};

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

  // First pass: anchor each task id's start/finish so dependence edges can
  // be drawn as flow events between the right (track, time) points.
  std::unordered_map<std::uint64_t, Anchor> starts;
  std::unordered_map<std::uint64_t, Anchor> finishes;
  for (const auto& track : dump.tracks) {
    for (const Event& e : track.events) {
      if (e.kind == EventKind::kTaskStart) {
        starts[e.id] = Anchor{track.tid, e.t_ns, true};
      } else if (e.kind == EventKind::kTaskFinish) {
        finishes[e.id] = Anchor{track.tid, e.t_ns, true};
      }
    }
  }

  std::uint64_t flow_id = 0;
  for (const auto& track : dump.tracks) {
    for (const Event& e : track.events) {
      const KindInfo info = kind_info(e.kind);
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
        const auto from = finishes.find(e.id);
        const auto to = starts.find(e.arg);
        if (from != finishes.end() && to != starts.end()) {
          const std::uint64_t fid = flow_id++;
          comma();
          out += "{\"ph\":\"s\",\"name\":\"dep\",\"cat\":\"dep\",\"id\":";
          out += std::to_string(fid);
          out += ",\"ts\":";
          append_ts(out, from->second.t_ns);
          out += ",\"pid\":1,\"tid\":";
          out += std::to_string(from->second.tid);
          out += "}";
          comma();
          out += "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"dep\",\"cat\":\"dep\",\"id\":";
          out += std::to_string(fid);
          out += ",\"ts\":";
          append_ts(out, to->second.t_ns);
          out += ",\"pid\":1,\"tid\":";
          out += std::to_string(to->second.tid);
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

/// Reverse of kind_info: (ph, name-stem, cat) → EventKind, built once from
/// the same table the writer uses so the two can never drift apart.
const std::unordered_map<std::string, EventKind>& kind_by_triple() {
  static const auto* map = [] {
    auto* m = new std::unordered_map<std::string, EventKind>;
    for (int k = 0; k <= static_cast<int>(EventKind::kLastKind); ++k) {
      const auto kind = static_cast<EventKind>(k);
      const KindInfo info = kind_info(kind);
      m->emplace(std::string(info.ph) + '\x1f' + info.name + '\x1f' + info.cat,
                 kind);
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
        ThreadTrack& track = track_for(
            static_cast<std::uint32_t>(require_number(record, "tid")));
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
        kind_by_triple().find(ph->string + '\x1f' + stem + '\x1f' + cat->string);
    if (it == kind_by_triple().end()) continue;  // foreign tooling event

    const JsonValue* args = record.get("args");
    if (args == nullptr || args->get("id") == nullptr ||
        args->get("arg") == nullptr) {
      throw std::runtime_error("chrome trace: event without args.id/args.arg");
    }
    Event e;
    e.kind = it->second;
    e.t_ns = static_cast<std::uint64_t>(
        std::llround(require_number(record, "ts") * 1000.0));
    e.id = static_cast<std::uint64_t>(require_number(*args, "id"));
    e.arg = static_cast<std::uint64_t>(require_number(*args, "arg"));
    track_for(static_cast<std::uint32_t>(require_number(record, "tid")))
        .events.push_back(e);
  }
  return dump;
}

}  // namespace parc::obs
