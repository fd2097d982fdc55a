// json_fuzz — deterministic seeded driver for the JSON writer and parser
// (ctest label `fuzz`; no external deps).
//
// Three cases, every one a contract the serving plane relies on:
//
//   1. Round trip. Random nested documents are written with JsonWriter —
//      strings drawn from all 256 byte values, doubles in all four
//      number styles including NaN and ±inf — then parsed back by
//      JsonValue::parse and compared node by node against the values
//      written: strings byte for byte, numbers against printf of the
//      same format read back by strtod, non-finite numbers as null.
//   2. Damage. Every prefix truncation and every single-byte mutation
//      (all 256 values at every offset) of a set of seed documents must
//      parse or throw InvalidArgument — nothing else.
//   3. Nesting. Arrays and objects nested 511 and 512 deep parse; 513
//      deep is rejected with InvalidArgument.
//
// Usage: json_fuzz [documents] [seed]   (defaults: 300, 20150817)
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"

namespace {

using namespace cellscope;

constexpr JsonNumber kStyles[] = {JsonNumber::kRoundTrip,
                                  JsonNumber::kCompact, JsonNumber::kFixed6,
                                  JsonNumber::kFixed3};
constexpr const char* kPrintfFormats[] = {"%.17g", "%.9g", "%.6f", "%.3f"};

/// What was written, kept beside the text to check the parse against.
struct Node {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool flag = false;
  double number = 0.0;  // the value the parser must return
  std::string text;     // string value
  std::vector<std::pair<std::string, std::unique_ptr<Node>>> members;
  std::vector<std::unique_ptr<Node>> items;
};

class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}

  std::unique_ptr<Node> document(JsonWriter& w) { return value(w, 0); }

 private:
  std::size_t below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  std::string random_bytes() {
    std::string s(below(12), '\0');
    for (auto& c : s) c = static_cast<char>(below(256));
    return s;
  }

  double random_double() {
    switch (below(8)) {
      case 0:
        return std::numeric_limits<double>::quiet_NaN();
      case 1:
        return below(2) ? std::numeric_limits<double>::infinity()
                        : -std::numeric_limits<double>::infinity();
      case 2:
        return below(2) ? 0.0 : -0.0;
      case 3: {  // any finite bit pattern, tiny and huge magnitudes too
        double v = 0.0;
        do v = std::bit_cast<double>(rng_());
        while (!std::isfinite(v));
        return v;
      }
      default:
        return std::ldexp(std::uniform_real_distribution<double>(-1, 1)(rng_),
                          static_cast<int>(below(80)) - 40);
    }
  }

  std::unique_ptr<Node> value(JsonWriter& w, int depth) {
    auto node = std::make_unique<Node>();
    const std::size_t pick = below(depth < 5 ? 8 : 5);
    switch (pick) {
      case 0:
        node->kind = Node::Kind::kNull;
        w.null();
        break;
      case 1:
        node->kind = Node::Kind::kBool;
        node->flag = below(2) == 1;
        w.boolean(node->flag);
        break;
      case 2: {
        node->kind = Node::Kind::kNumber;
        const auto v = static_cast<std::int64_t>(rng_());
        node->number = static_cast<double>(v);
        w.integer(v);
        break;
      }
      case 3: {
        const double v = random_double();
        const std::size_t style = below(4);
        w.number(v, kStyles[style]);
        if (!std::isfinite(v)) break;  // written as null
        // Fixed notation of a huge double is hundreds of digits long.
        char buf[400];
        std::snprintf(buf, sizeof(buf), kPrintfFormats[style], v);
        node->kind = Node::Kind::kNumber;
        node->number = std::strtod(buf, nullptr);
        break;
      }
      case 4:
        node->kind = Node::Kind::kString;
        node->text = random_bytes();
        w.string(node->text);
        break;
      case 5:
      case 6: {
        node->kind = Node::Kind::kArray;
        w.begin_array();
        for (std::size_t i = below(5); i > 0; --i)
          node->items.push_back(value(w, depth + 1));
        w.end_array();
        break;
      }
      default: {
        node->kind = Node::Kind::kObject;
        w.begin_object();
        for (std::size_t i = below(5); i > 0; --i) {
          // A distinct prefix keeps keys unique: duplicates collapse.
          std::string key = std::to_string(i) + random_bytes();
          w.key(key);
          node->members.emplace_back(std::move(key), value(w, depth + 1));
        }
        w.end_object();
        break;
      }
    }
    return node;
  }

  std::mt19937_64 rng_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Empty when `parsed` matches `want`, else where it first differs.
std::string mismatch(const Node& want, const JsonValue& parsed,
                     const std::string& path) {
  switch (want.kind) {
    case Node::Kind::kNull:
      return parsed.is_null() ? "" : path + ": expected null";
    case Node::Kind::kBool:
      return parsed.is_bool() && parsed.as_bool() == want.flag
                 ? ""
                 : path + ": bool differs";
    case Node::Kind::kNumber:
      return parsed.is_number() && same_bits(parsed.as_number(), want.number)
                 ? ""
                 : path + ": number differs";
    case Node::Kind::kString:
      return parsed.is_string() && parsed.as_string() == want.text
                 ? ""
                 : path + ": string differs";
    case Node::Kind::kArray: {
      if (!parsed.is_array() || parsed.as_array().size() != want.items.size())
        return path + ": array shape differs";
      for (std::size_t i = 0; i < want.items.size(); ++i) {
        auto m = mismatch(*want.items[i], parsed.as_array()[i],
                          path + "[" + std::to_string(i) + "]");
        if (!m.empty()) return m;
      }
      return "";
    }
    case Node::Kind::kObject: {
      if (!parsed.is_object() ||
          parsed.as_object().size() != want.members.size())
        return path + ": object shape differs";
      for (const auto& [key, child] : want.members) {
        if (!parsed.contains(key)) return path + ": key missing";
        auto m = mismatch(*child, parsed.at(key), path + ".<key>");
        if (!m.empty()) return m;
      }
      return "";
    }
  }
  return path + ": unknown kind";
}

/// Parses `text`; false (and a message) on anything but success or
/// InvalidArgument.
bool parses_or_rejects(const std::string& text, const char* what,
                       std::size_t offset) {
  try {
    (void)JsonValue::parse(text);
  } catch (const InvalidArgument&) {
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL %s at %zu: wrong exception: %s\n", what,
                 offset, e.what());
    return false;
  } catch (...) {
    std::fprintf(stderr, "FAIL %s at %zu: non-standard exception\n", what,
                 offset);
    return false;
  }
  return true;
}

std::string nested(std::size_t depth, bool objects) {
  JsonWriter w;
  for (std::size_t d = 0; d < depth; ++d) {
    if (objects)
      w.begin_object().key("a");
    else
      w.begin_array();
  }
  if (objects) w.null();
  for (std::size_t d = 0; d < depth; ++d) {
    if (objects)
      w.end_object();
    else
      w.end_array();
  }
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  const int documents = argc > 1 ? std::atoi(argv[1]) : 300;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20150817;
  int failures = 0;

  // 1. Round trip.
  Generator generator(seed);
  std::vector<std::string> seeds = {
      R"({"tower":4,"classification":{"cluster":0,"region":"Office",)"
      R"("distance":921.75,"cold_start":false},"values":[1e-3,-2,null]})",
      R"(["é📶\n\"\\",{},[],true,false,0.5e+10])"};
  for (int i = 0; i < documents; ++i) {
    JsonWriter w;
    const auto want = generator.document(w);
    const std::string text = w.take();
    try {
      const auto m = mismatch(*want, JsonValue::parse(text), "$");
      if (!m.empty()) {
        std::fprintf(stderr, "FAIL document %d: %s\n", i, m.c_str());
        ++failures;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL document %d: writer output rejected: %s\n",
                   i, e.what());
      ++failures;
    }
    if (i < 8 && text.size() < 400) seeds.push_back(text);
  }

  // 2. Damage: every truncation, every byte value at every offset.
  std::size_t damaged = 0;
  for (const auto& doc : seeds) {
    for (std::size_t len = 0; len < doc.size(); ++len, ++damaged)
      if (!parses_or_rejects(doc.substr(0, len), "truncation", len))
        ++failures;
    for (std::size_t at = 0; at < doc.size(); ++at) {
      std::string mutated = doc;
      for (int byte = 0; byte < 256; ++byte, ++damaged) {
        mutated[at] = static_cast<char>(byte);
        if (!parses_or_rejects(mutated, "mutation", at)) ++failures;
      }
    }
  }

  // 3. Nesting at the parser's bound.
  for (const bool objects : {false, true}) {
    for (const std::size_t depth : {511, 512, 513}) {
      const std::string doc = nested(depth, objects);
      bool accepted = false;
      try {
        (void)JsonValue::parse(doc);
        accepted = true;
      } catch (const InvalidArgument&) {
      } catch (const std::exception& e) {
        std::fprintf(stderr, "FAIL depth %zu: wrong exception: %s\n", depth,
                     e.what());
        ++failures;
        continue;
      }
      if (accepted != (depth <= 512)) {
        std::fprintf(stderr, "FAIL depth %zu (%s): %s\n", depth,
                     objects ? "objects" : "arrays",
                     accepted ? "accepted" : "rejected");
        ++failures;
      }
    }
  }

  std::printf("json_fuzz: %d documents, %zu damaged inputs, seed %llu: %s\n",
              documents, damaged, static_cast<unsigned long long>(seed),
              failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
