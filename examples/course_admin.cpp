// The course itself as an application: run one semester of SoftEng 751
// administration — form groups, release the doodle poll, allocate topics,
// generate commit logs, compute grades, and run the end-of-course survey.
//
//   $ ./course_admin [num_students] [seed]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "course/course.hpp"
#include "support/table.hpp"

using namespace parc;
using namespace parc::course;

namespace {

/// "G7", "#2": a one-character prefix appended to, not `"G" + to_string`,
/// on which GCC 12 raises a false -Wrestrict in optimized builds.
std::string tagged(char prefix, std::size_t n) {
  std::string s(1, prefix);
  s += std::to_string(n);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t num_students =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 60;
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 2013;

  // 1. Cohort and groups.
  std::vector<std::string> students;
  for (std::size_t i = 0; i < num_students; ++i) {
    students.push_back("student_" + std::to_string(i));
  }
  auto groups = form_groups(students, 3);
  std::printf("cohort: %zu students in %zu groups of 3\n", students.size(),
              groups.size());

  // 2. Doodle-poll topic allocation.
  const auto topics = softeng751_topics();
  assign_preferences(groups, topics.size(), seed);
  std::vector<std::size_t> arrival(groups.size());
  for (std::size_t i = 0; i < arrival.size(); ++i) arrival[i] = i;
  Rng rng(seed ^ 0xD00D1E);
  shuffle(arrival.begin(), arrival.end(), rng);
  const auto allocation = allocate_fifo(groups, topics.size(), 2, arrival);

  Table alloc_table("Doodle-poll allocation (first-in first-served, 2 groups/topic)");
  alloc_table.columns({"topic", "groups", "choice ranks"});
  for (std::size_t t = 0; t < topics.size(); ++t) {
    std::string who, ranks;
    for (std::size_t g : allocation.groups_of_topic[t]) {
      if (!who.empty()) {
        who += ", ";
        ranks += ", ";
      }
      who += tagged('G', g);
      ranks += tagged('#', allocation.rank_received[g]);
    }
    alloc_table.row({topics[t].title, who, ranks});
  }
  alloc_table.print(std::cout);

  // 3. Eight weeks of project work → subversion logs → contribution check.
  Table contrib_table("Contribution analysis from subversion logs");
  contrib_table.columns({"group", "commits", "max member share %", "balanced",
                         "layout ok %"});
  Rng grade_rng(seed ^ 0x9DADE5);
  std::vector<StudentRecord> cohort;
  for (const auto& group : groups) {
    CommitModel model;
    // One in five groups is uneven, like real cohorts.
    if (grade_rng.chance(0.2) && group.members.size() == 3) {
      model.member_weights = {3.0, 1.0, 0.7};
    }
    const auto log =
        generate_commit_log(group.id, group.members, model, seed + group.id);
    const auto report = analyse_contributions(log);
    contrib_table.add_row()
        .cell(tagged('G', group.id))
        .cell(static_cast<std::uint64_t>(log.commits.size()))
        .cell(100.0 * report.max_line_share, 1)
        .cell(report.balanced ? "yes" : "NO")
        .cell(100.0 * report.layout_compliance, 1);

    // 4. Marks: group components shared, tests individual, peer factors
    // nudged for unbalanced groups.
    const double seminar = grade_rng.uniform(65, 95);
    const double impl = grade_rng.uniform(60, 98);
    const double report_mark = grade_rng.uniform(60, 95);
    for (std::size_t m = 0; m < group.members.size(); ++m) {
      StudentRecord s;
      s.id = group.members[m];
      s.group = group.id;
      s.raw[static_cast<std::size_t>(Component::kTest1)] =
          grade_rng.uniform(50, 100);
      s.raw[static_cast<std::size_t>(Component::kTest2)] =
          grade_rng.uniform(50, 100);
      s.raw[static_cast<std::size_t>(Component::kSeminar)] = seminar;
      s.raw[static_cast<std::size_t>(Component::kImplementation)] = impl;
      s.raw[static_cast<std::size_t>(Component::kReport)] = report_mark;
      s.peer_factor = report.balanced ? 1.0 : (m == 0 ? 1.05 : 0.9);
      cohort.push_back(std::move(s));
    }
  }
  contrib_table.print(std::cout);

  const auto stats = cohort_stats(cohort);
  std::printf(
      "\nfinal grades: mean %.1f, sd %.1f, range [%.1f, %.1f], "
      "test1/implementation correlation %.2f\n",
      stats.mean, stats.stddev, stats.min, stats.max,
      stats.test1_impl_correlation);

  // 5. End-of-course Likert survey.
  const auto outcomes = run_survey(softeng751_survey(), cohort.size(), seed);
  Table survey_table("End-of-course evaluation (agree + strongly agree)");
  survey_table.columns({"question", "sampled %", "paper %"});
  for (const auto& o : outcomes) {
    survey_table.add_row()
        .cell(o.question)
        .cell(o.agree_pct, 1)
        .cell(o.reported_pct, 1);
  }
  survey_table.print(std::cout);
  return 0;
}
