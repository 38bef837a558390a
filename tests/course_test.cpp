// Course machinery: nexus classification (Fig. 1), plan structure (Fig. 2),
// assessment pipeline, FIFO allocation properties, Likert evaluation,
// commit-log contribution analysis.
#include "course/course.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

namespace parc::course {
namespace {

// ---------------------------------------------------------------------------
// Nexus (Figure 1).
// ---------------------------------------------------------------------------

TEST(Nexus, QuadrantMappingMatchesHealeyModel) {
  EXPECT_EQ(classify(ContentEmphasis::kResearchContent, StudentRole::kAudience),
            NexusCategory::kResearchLed);
  EXPECT_EQ(
      classify(ContentEmphasis::kResearchProcesses, StudentRole::kAudience),
      NexusCategory::kResearchOriented);
  EXPECT_EQ(
      classify(ContentEmphasis::kResearchContent, StudentRole::kParticipants),
      NexusCategory::kResearchTutored);
  EXPECT_EQ(classify(ContentEmphasis::kResearchProcesses,
                     StudentRole::kParticipants),
            NexusCategory::kResearchBased);
}

TEST(Nexus, SoftEng751CoversThreeQuadrants) {
  // §III-E: the course spans research-led, research-tutored and
  // research-based; research-oriented is deliberately absent.
  const auto activities = softeng751_activities();
  const auto covered = covered_categories(activities);
  std::set<NexusCategory> set(covered.begin(), covered.end());
  EXPECT_TRUE(set.contains(NexusCategory::kResearchLed));
  EXPECT_TRUE(set.contains(NexusCategory::kResearchTutored));
  EXPECT_TRUE(set.contains(NexusCategory::kResearchBased));
  EXPECT_FALSE(set.contains(NexusCategory::kResearchOriented));
}

TEST(Nexus, ProjectIsResearchBased) {
  const auto activities = softeng751_activities();
  const auto it = std::find_if(activities.begin(), activities.end(),
                               [](const CourseActivity& a) {
                                 return a.name == "group research project";
                               });
  ASSERT_NE(it, activities.end());
  EXPECT_EQ(it->category(), NexusCategory::kResearchBased);
}

TEST(Nexus, NamesRoundTrip) {
  EXPECT_EQ(to_string(NexusCategory::kResearchLed), "research-led");
  EXPECT_EQ(to_string(NexusCategory::kResearchOriented), "research-oriented");
  EXPECT_EQ(to_string(NexusCategory::kResearchTutored), "research-tutored");
  EXPECT_EQ(to_string(NexusCategory::kResearchBased), "research-based");
}

// ---------------------------------------------------------------------------
// Plan (Figure 2).
// ---------------------------------------------------------------------------

TEST(Plan, TwelveTeachingWeeksPlusBreak) {
  const auto plan = softeng751_plan();
  int teaching = 0, breaks = 0;
  for (const auto& w : plan) {
    if (w.study_break) {
      ++breaks;
    } else {
      ++teaching;
    }
  }
  EXPECT_EQ(teaching, 12);
  EXPECT_EQ(breaks, 2);
}

TEST(Plan, PaperStatedPlacementsHold) {
  const auto checks = validate_plan(softeng751_plan());
  EXPECT_TRUE(checks.test1_in_week6);
  EXPECT_TRUE(checks.seminars_weeks_7_to_10);
  EXPECT_TRUE(checks.test2_in_week11);
  EXPECT_TRUE(checks.final_due_week12);
  EXPECT_TRUE(checks.first_five_weeks_teaching);
  // "students will have 8 weeks of development time": week 6 through 12
  // plus the study break all carry project time.
  EXPECT_GE(checks.project_weeks, 8);
}

TEST(Plan, WeekUseCodes) {
  EXPECT_EQ(week_use_code(static_cast<unsigned>(WeekUse::kInstructorTeaching)),
            "IT");
  EXPECT_EQ(week_use_code(static_cast<unsigned>(WeekUse::kAssessment) |
                          static_cast<unsigned>(WeekUse::kProject)),
            "A+P");
  EXPECT_EQ(week_use_code(0), "-");
}

// ---------------------------------------------------------------------------
// Assessment.
// ---------------------------------------------------------------------------

TEST(Assessment, WeightsMatchPaper) {
  EXPECT_DOUBLE_EQ(kWeights[static_cast<std::size_t>(Component::kTest1)], 25.0);
  EXPECT_DOUBLE_EQ(kWeights[static_cast<std::size_t>(Component::kSeminar)],
                   20.0);
  EXPECT_DOUBLE_EQ(kWeights[static_cast<std::size_t>(Component::kTest2)], 10.0);
  EXPECT_DOUBLE_EQ(
      kWeights[static_cast<std::size_t>(Component::kImplementation)], 25.0);
  EXPECT_DOUBLE_EQ(kWeights[static_cast<std::size_t>(Component::kReport)],
                   20.0);
}

TEST(Assessment, OnlyAQuarterIsIndividualLectureMaterial) {
  // §III-C: "only 25% of the grade targeted individual understanding of the
  // lecture-style material" (Test 1).
  double individual_lecture = 0.0;
  for (std::size_t c = 0; c < kComponentCount; ++c) {
    if (static_cast<Component>(c) == Component::kTest1) {
      individual_lecture += kWeights[c];
    }
  }
  EXPECT_DOUBLE_EQ(individual_lecture, 25.0);
}

TEST(Assessment, GroupComponentsAreTheProjectPieces) {
  EXPECT_FALSE(is_group_component(Component::kTest1));
  EXPECT_FALSE(is_group_component(Component::kTest2));
  EXPECT_TRUE(is_group_component(Component::kSeminar));
  EXPECT_TRUE(is_group_component(Component::kImplementation));
  EXPECT_TRUE(is_group_component(Component::kReport));
}

TEST(Assessment, PerfectScoresGiveHundred) {
  StudentRecord s;
  s.raw = {100, 100, 100, 100, 100};
  EXPECT_DOUBLE_EQ(final_grade(s), 100.0);
}

TEST(Assessment, WeightedMixture) {
  StudentRecord s;
  s.raw = {80, 60, 100, 70, 90};  // test1, seminar, test2, impl, report
  const double expected =
      80 * 0.25 + 60 * 0.20 + 100 * 0.10 + 70 * 0.25 + 90 * 0.20;
  EXPECT_DOUBLE_EQ(final_grade(s), expected);
}

TEST(Assessment, PeerFactorScalesOnlyGroupComponents) {
  StudentRecord fair;
  fair.raw = {80, 80, 80, 80, 80};
  StudentRecord slacker = fair;
  slacker.peer_factor = 0.5;
  // Group components (65% of weight) halve; tests (35%) stay.
  const double expected = 80 * 0.35 + 40 * 0.65;
  EXPECT_DOUBLE_EQ(final_grade(slacker), expected);
  EXPECT_DOUBLE_EQ(final_grade(fair), 80.0);
}

TEST(Assessment, PeerFactorClampsAtHundred) {
  StudentRecord s;
  s.raw = {100, 95, 100, 95, 95};
  s.peer_factor = 1.5;
  EXPECT_LE(final_grade(s), 100.0);
}

TEST(Assessment, OutOfRangeMarkAborts) {
  StudentRecord s;
  s.raw = {120, 0, 0, 0, 0};
  EXPECT_DEATH((void)final_grade(s), "range");
}

TEST(Assessment, CohortStatsComputed) {
  std::vector<StudentRecord> cohort;
  for (int i = 0; i < 20; ++i) {
    StudentRecord s;
    const double base = 50.0 + i * 2.0;
    s.raw = {base, base, base, base, base};
    cohort.push_back(s);
  }
  const auto stats = cohort_stats(cohort);
  EXPECT_NEAR(stats.mean, 69.0, 1e-9);
  EXPECT_GT(stats.stddev, 0.0);
  EXPECT_NEAR(stats.test1_impl_correlation, 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Allocation.
// ---------------------------------------------------------------------------

TEST(Allocation, PaperTopicListHasTenEntries) {
  const auto topics = softeng751_topics();
  EXPECT_EQ(topics.size(), 10u);
  int android = 0;
  for (const auto& t : topics) {
    if (t.android_option) ++android;
  }
  EXPECT_EQ(android, 4);  // thumbnails, string search, PDF, web access
}

TEST(Allocation, FormGroupsOfThree) {
  std::vector<std::string> students;
  for (int i = 0; i < 60; ++i) {
    // Appended, not `"s" + std::to_string(i)`: GCC 12 raises a false
    // -Wrestrict on that operator+ in optimized builds.
    std::string id = "s";
    id += std::to_string(i);
    students.push_back(std::move(id));
  }
  const auto groups = form_groups(students, 3);
  EXPECT_EQ(groups.size(), 20u);
  for (const auto& g : groups) EXPECT_EQ(g.members.size(), 3u);
}

TEST(Allocation, UnevenCohortLastGroupSmaller) {
  std::vector<std::string> students(59, "x");
  const auto groups = form_groups(students, 3);
  EXPECT_EQ(groups.size(), 20u);
  EXPECT_EQ(groups.back().members.size(), 2u);
}

TEST(Allocation, TwentyGroupsTenTopicsFillsExactly) {
  std::vector<std::string> students(60, "x");
  auto groups = form_groups(students, 3);
  assign_preferences(groups, 10, 2013);
  std::vector<std::size_t> arrival(groups.size());
  for (std::size_t i = 0; i < arrival.size(); ++i) arrival[i] = i;
  const auto result = allocate_fifo(groups, 10, 2, arrival);
  EXPECT_TRUE(allocation_respects_capacity(result, 2));
  // Exactly two groups per topic.
  for (const auto& holders : result.groups_of_topic) {
    EXPECT_EQ(holders.size(), 2u);
  }
  EXPECT_TRUE(allocation_is_fifo_fair(groups, result, arrival));
}

TEST(Allocation, FirstArriverGetsFirstChoice) {
  std::vector<std::string> students(12, "x");
  auto groups = form_groups(students, 3);
  assign_preferences(groups, 4, 7);
  std::vector<std::size_t> arrival = {2, 0, 1, 3};
  const auto result = allocate_fifo(groups, 4, 2, arrival);
  EXPECT_EQ(result.rank_received[2], 1u);  // first to pick
}

TEST(Allocation, FifoFairAcrossManySeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<std::string> students(60, "x");
    auto groups = form_groups(students, 3);
    assign_preferences(groups, 10, seed);
    // Arrival order shuffled by seed.
    std::vector<std::size_t> arrival(groups.size());
    for (std::size_t i = 0; i < arrival.size(); ++i) arrival[i] = i;
    Rng rng(seed * 31);
    shuffle(arrival.begin(), arrival.end(), rng);
    const auto result = allocate_fifo(groups, 10, 2, arrival);
    ASSERT_TRUE(allocation_respects_capacity(result, 2)) << seed;
    ASSERT_TRUE(allocation_is_fifo_fair(groups, result, arrival)) << seed;
    // Every group allocated.
    for (std::size_t g = 0; g < groups.size(); ++g) {
      ASSERT_LT(result.topic_of_group[g], 10u);
    }
  }
}

TEST(Allocation, InsufficientCapacityAborts) {
  std::vector<std::string> students(12, "x");
  auto groups = form_groups(students, 3);  // 4 groups
  assign_preferences(groups, 1, 3);
  std::vector<std::size_t> arrival = {0, 1, 2, 3};
  EXPECT_DEATH((void)allocate_fifo(groups, 1, 2, arrival), "capacity");
}

TEST(Allocation, PopularTopicsContested) {
  // With Zipf-skewed preferences, at least one group misses its first
  // choice in a typical cohort.
  std::vector<std::string> students(60, "x");
  auto groups = form_groups(students, 3);
  assign_preferences(groups, 10, 99);
  std::vector<std::size_t> arrival(groups.size());
  for (std::size_t i = 0; i < arrival.size(); ++i) arrival[i] = i;
  const auto result = allocate_fifo(groups, 10, 2, arrival);
  const bool someone_missed =
      std::any_of(result.rank_received.begin(), result.rank_received.end(),
                  [](std::size_t r) { return r > 1; });
  EXPECT_TRUE(someone_missed);
}

// ---------------------------------------------------------------------------
// Topic pool (§III-D / §IV-C).
// ---------------------------------------------------------------------------

TEST(TopicPool, SuitabilityGatesOnWeakestFactor) {
  TopicProposal strong{"x", ProposerKind::kInstructor, 0.9, 0.9, 0.9, 2013, 0};
  TopicProposal gated = strong;
  gated.timeframe_fit = 0.1;  // cannot fit the semester
  EXPECT_GT(suitability(strong), 2.0 * suitability(gated));
}

TEST(TopicPool, ReofferingDiscountsScore) {
  TopicProposal fresh{"x", ProposerKind::kInstructor, 0.8, 0.8, 0.8, 2013, 0};
  TopicProposal reused = fresh;
  reused.times_offered = 3;
  EXPECT_GT(suitability(fresh), suitability(reused));
  EXPECT_NEAR(suitability(reused), suitability(fresh) * 0.9 * 0.9 * 0.9,
              1e-12);
}

TEST(TopicPool, ReviewPicksTopTenFrom2013Pool) {
  auto pool = softeng751_2013_pool();
  EXPECT_GT(pool.size(), 10u);  // wish-list is larger than the selection
  const auto selected = pool.review_top(10, 2013);
  ASSERT_EQ(selected.size(), 10u);
  // The ten §IV-C topics beat the wish-list leftovers.
  const auto paper_topics = softeng751_topics();
  for (const auto& s : selected) {
    const bool in_paper = std::any_of(
        paper_topics.begin(), paper_topics.end(),
        [&](const Topic& t) { return t.title == s.title; });
    EXPECT_TRUE(in_paper) << s.title;
  }
  // Best first.
  for (std::size_t i = 1; i < selected.size(); ++i) {
    EXPECT_GE(suitability(selected[i - 1]), suitability(selected[i]) - 1e-12);
  }
}

TEST(TopicPool, SelectionMarksTopicsOffered) {
  auto pool = softeng751_2013_pool();
  (void)pool.review_top(10, 2013);
  int offered = 0;
  for (const auto& t : pool.topics()) {
    if (t.times_offered > 0 && t.proposed_year == 2013) ++offered;
  }
  EXPECT_GE(offered, 10);
}

TEST(TopicPool, RecyclingAcrossYearsRotates) {
  // Offer the top ten three years running: the discount rotates topics in
  // from the wish-list once the regulars have been offered repeatedly.
  auto pool = softeng751_2013_pool();
  const auto y1 = pool.review_top(10, 2013);
  (void)pool.review_top(10, 2014);
  const auto y3 = pool.review_top(10, 2015);
  // After two offerings each, some fresh wish-list topic displaces a
  // discounted regular.
  const bool rotated = std::any_of(
      y3.begin(), y3.end(), [&](const TopicProposal& t) {
        return std::none_of(y1.begin(), y1.end(),
                            [&](const TopicProposal& o) {
                              return o.title == t.title;
                            });
      });
  EXPECT_TRUE(rotated);
}

TEST(TopicPool, ReviewWithTooFewProposalsAborts) {
  TopicPool pool;
  pool.propose({"only one", ProposerKind::kInstructor, 1, 1, 1, 2013, 0});
  EXPECT_DEATH((void)pool.review_top(10, 2013), "not enough");
}

// ---------------------------------------------------------------------------
// Evaluation (§V-A).
// ---------------------------------------------------------------------------

TEST(Evaluation, SurveyDistributionsMatchReportedAgreePct) {
  for (const auto& q : softeng751_survey()) {
    const double agree =
        100.0 * (q.probabilities[0] + q.probabilities[1]);
    EXPECT_NEAR(agree, q.reported_agree_pct, 1e-9) << q.text;
  }
}

TEST(Evaluation, SampledCohortTracksReportedNumbers) {
  const auto outcomes = run_survey(softeng751_survey(), 5000, 42);
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& o : outcomes) {
    EXPECT_NEAR(o.agree_pct, o.reported_pct, 2.0) << o.question;
    std::uint64_t total = 0;
    for (auto c : o.counts) total += c;
    EXPECT_EQ(total, 5000u);
  }
}

TEST(Evaluation, SmallCohortIsDeterministic) {
  const auto a = run_survey(softeng751_survey(), 57, 7);
  const auto b = run_survey(softeng751_survey(), 57, 7);
  for (std::size_t q = 0; q < a.size(); ++q) {
    EXPECT_EQ(a[q].counts, b[q].counts);
  }
}

TEST(Evaluation, OpenCommentsIncludeImprovementRequest) {
  const auto comments = reported_open_comments();
  EXPECT_EQ(comments.size(), 5u);
  const bool has_improvement =
      std::any_of(comments.begin(), comments.end(), [](const OpenComment& c) {
        return c.prompt.find("improvement") != std::string::npos;
      });
  EXPECT_TRUE(has_improvement);
}

// ---------------------------------------------------------------------------
// Community dynamics (§V-B outcomes).
// ---------------------------------------------------------------------------

TEST(Community, DeterministicForSeed) {
  CommunityParams params;
  const auto a = simulate_community(params, 6, 6, 9);
  const auto b = simulate_community(params, 6, 6, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].new_project_students, b[s].new_project_students);
    EXPECT_EQ(a[s].bug_reports, b[s].bug_reports);
  }
}

TEST(Community, ExperiencedPoolEmergesAfterFirstSemester) {
  CommunityParams params;
  const auto series = simulate_community(params, 6, 6, 2013);
  EXPECT_EQ(series[0].experienced_members, 0u);  // nobody yet
  // Once the first continuing cohort ages in, the pool stays populated.
  for (std::size_t s = 2; s < series.size(); ++s) {
    EXPECT_GT(series[s].experienced_members, 0u) << "semester " << s + 1;
  }
}

TEST(Community, MentoringRatioStaysBounded) {
  CommunityParams params;
  const auto series = simulate_community(params, 10, 6, 7);
  for (const auto& s : series) {
    EXPECT_LT(s.mentoring_ratio, 10.0);
  }
}

TEST(Community, BugBacklogStabilises) {
  CommunityParams params;
  const auto series = simulate_community(params, 12, 6, 21);
  // With fix_rate 0.75 the backlog cannot grow without bound: the last
  // semesters' backlog stays within a small multiple of one semester's
  // report volume.
  const auto& last = series.back();
  EXPECT_LT(last.open_bugs, last.bug_reports * 2 + 10);
}

TEST(Community, ZeroMentorsRatioDegradesGracefully) {
  CommunityParams params;
  const auto series = simulate_community(params, 2, 0, 3);
  EXPECT_GE(series[0].mentoring_ratio, 0.0);  // no division blow-up
}

// ---------------------------------------------------------------------------
// Commit logs.
// ---------------------------------------------------------------------------

TEST(Commits, DeterministicGeneration) {
  const CommitModel model;
  const auto a = generate_commit_log(1, {"alice", "bob", "carol"}, model, 5);
  const auto b = generate_commit_log(1, {"alice", "bob", "carol"}, model, 5);
  EXPECT_EQ(a.commits.size(), b.commits.size());
}

TEST(Commits, SortedByDayAndWithinWindow) {
  const CommitModel model;
  const auto log = generate_commit_log(0, {"a", "b", "c"}, model, 11);
  int prev = 0;
  for (const auto& c : log.commits) {
    EXPECT_GE(c.day, prev);
    prev = c.day;
    EXPECT_LT(c.day, model.project_days);
  }
}

TEST(Commits, CrunchWeekIsBusier) {
  CommitModel model;
  model.crunch_multiplier = 4.0;
  const auto log = generate_commit_log(0, {"a", "b", "c"}, model, 13);
  std::size_t last_week = 0, first_week = 0;
  for (const auto& c : log.commits) {
    if (c.day >= model.project_days - 7) ++last_week;
    if (c.day < 7) ++first_week;
  }
  EXPECT_GT(last_week, first_week);
}

TEST(Commits, BalancedGroupPassesAnalysis) {
  const CommitModel model;  // equal weights
  const auto log = generate_commit_log(0, {"a", "b", "c"}, model, 17);
  const auto report = analyse_contributions(log);
  EXPECT_TRUE(report.balanced);
  EXPECT_EQ(report.members.size(), 3u);
  EXPECT_DOUBLE_EQ(report.layout_compliance, 1.0);
  double share = 0.0;
  for (const auto& m : report.members) share += m.commit_share;
  EXPECT_NEAR(share, 1.0, 1e-9);
}

TEST(Commits, SkewedGroupFlagged) {
  CommitModel model;
  model.member_weights = {10.0, 0.5, 0.5};
  const auto log = generate_commit_log(0, {"a", "b", "c"}, model, 19);
  const auto report = analyse_contributions(log, 0.6);
  EXPECT_FALSE(report.balanced);
  EXPECT_EQ(report.members.front().member, "a");
  EXPECT_GT(report.max_line_share, 0.6);
}

}  // namespace
}  // namespace parc::course
