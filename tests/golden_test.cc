#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tests/determinism_inputs.h"

// Golden outputs: each seeded whole-cluster input of determinism_test, run
// once at one shard, against its checked-in output in tests/golden/. The
// inputs are deterministic, so any change to modeled behaviour — an event
// more or less, one counter or histogram bucket moved — fails here and
// names the keys that moved. A file holds `events_executed`, then one
// `name value` line per leaf of the flattened final metrics dump, then the
// same for each interval window (`window.N.` names). Running with
// AURORA_GOLDEN_ACCEPT=1 rewrites the files instead of comparing.

namespace aurora {
namespace {

using Lines = std::vector<std::string>;

// Appends one "name value" line per leaf of the JSON value at the front of
// `*in`, naming each by its dotted path below `prefix`, and consumes it.
// The metrics dump holds objects and bare scalars only, and its keys carry
// no escapes.
void Flatten(std::string_view* in, const std::string& prefix, Lines* out) {
  if (in->empty() || in->front() != '{') {
    const size_t end = in->find_first_of(",}");
    out->push_back(prefix + " " + std::string(in->substr(0, end)));
    in->remove_prefix(end == std::string_view::npos ? in->size() : end);
    return;
  }
  in->remove_prefix(1);
  while (!in->empty() && in->front() != '}') {
    const size_t close = in->find('"', 1);
    ASSERT_NE(close, std::string_view::npos) << "unterminated key";
    const std::string key(in->substr(1, close - 1));
    in->remove_prefix(close + 2);  // the closing quote and the colon
    Flatten(in, prefix.empty() ? key : prefix + "." + key, out);
    if (!in->empty() && in->front() == ',') in->remove_prefix(1);
  }
  ASSERT_FALSE(in->empty()) << "unterminated object";
  in->remove_prefix(1);
}

Lines FlattenJson(std::string_view json, const std::string& prefix) {
  Lines out;
  Flatten(&json, prefix, &out);
  EXPECT_TRUE(json.empty()) << "trailing bytes after the dump";
  return out;
}

// A dump and its event count, as RunSeededWorkload returns them.
Lines GoldenLines(const std::pair<std::string, uint64_t>& run) {
  Lines lines = {"events_executed " + std::to_string(run.second)};
  for (std::string& line : FlattenJson(run.first, "")) {
    lines.push_back(std::move(line));
  }
  return lines;
}

// A windowed run's output: one window per line, the final dump, then
// "events_executed=N".
Lines GoldenLines(const std::string& run) {
  Lines text;
  std::istringstream in(run);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) text.push_back(std::move(line));
  }
  const std::string events = "events_executed=";
  EXPECT_GE(text.size(), 2u);
  EXPECT_EQ(text.back().rfind(events, 0), 0u) << text.back();
  if (text.size() < 2 || text.back().rfind(events, 0) != 0) return {};
  const std::pair<std::string, uint64_t> final_dump = {
      text[text.size() - 2], std::stoull(text.back().substr(events.size()))};
  Lines lines = GoldenLines(final_dump);
  for (size_t w = 0; w + 2 < text.size(); ++w) {
    for (std::string& line :
         FlattenJson(text[w], "window." + std::to_string(w))) {
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

// Compares `actual` with tests/golden/<name>.txt, or rewrites the file when
// AURORA_GOLDEN_ACCEPT=1. A mismatch lists each moved, missing or extra
// name.
void ExpectGolden(const std::string& name, const Lines& actual) {
  ASSERT_GT(actual.size(), 100u) << "the dump proves nothing";
  const std::string path =
      std::string(AURORA_TEST_GOLDEN_DIR) + "/" + name + ".txt";
  const char* accept = std::getenv("AURORA_GOLDEN_ACCEPT");
  if (accept != nullptr && std::string(accept) == "1") {
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : actual) out << line << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path
                         << " (AURORA_GOLDEN_ACCEPT=1 writes it)";
  auto by_name = [](const Lines& lines) {
    std::map<std::string, std::string> out;
    for (const std::string& line : lines) {
      const size_t space = line.find(' ');
      out.emplace(line.substr(0, space), line.substr(space + 1));
    }
    return out;
  };
  Lines golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  if (golden == actual) return;
  const auto want = by_name(golden);
  const auto got = by_name(actual);
  std::string diff;
  size_t moved = 0;
  auto note = [&](const std::string& line) {
    if (++moved <= 60) diff += line + "\n";
  };
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    if (it == got.end()) {
      note("- " + key + " " + value);
    } else if (it->second != value) {
      note("~ " + key + " " + value + " -> " + it->second);
    }
  }
  for (const auto& [key, value] : got) {
    if (want.count(key) == 0) note("+ " + key + " " + value);
  }
  if (moved == 0) diff = "same names and values, in another order\n";
  ADD_FAILURE() << path << ": " << moved
                << " names moved (~ changed, - missing, + extra)\n"
                << diff;
}

TEST(GoldenTest, SeededWorkload) {
  ExpectGolden("seeded", GoldenLines(testing::RunSeededWorkload(20260806)));
}

TEST(GoldenTest, SeededWorkloadUnderAdversary) {
  ExpectGolden("seeded_adversary",
               GoldenLines(testing::RunSeededWorkload(20260806,
                                                      /*adversary=*/true)));
}

TEST(GoldenTest, RepairScrubWorkload) {
  ExpectGolden("repair_scrub",
               GoldenLines(testing::RunRepairScrubWorkload(20260807, 1)));
}

TEST(GoldenTest, WindowedSysbench) {
  ExpectGolden("windowed", GoldenLines(testing::RunWindowedSysbench(1)));
}

TEST(GoldenTest, ContendedWindowedSysbench) {
  ExpectGolden(
      "windowed_contended",
      GoldenLines(testing::RunWindowedSysbench(1, /*contended=*/true)));
}

TEST(GoldenTest, ReadMissSysbench) {
  ExpectGolden("read_miss", GoldenLines(testing::RunReadMissSysbench(1)));
}

TEST(GoldenTest, MysqlBaseline) {
  ExpectGolden("mysql", GoldenLines(testing::RunMysqlWorkload(20261019)));
}

TEST(GoldenTest, MysqlContended) {
  ExpectGolden("mysql_contended",
               GoldenLines(testing::RunMysqlContended(20261019)));
}

}  // namespace
}  // namespace aurora
