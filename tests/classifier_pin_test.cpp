// Exact-bit pin of the classifier backends: TAN with its Chow–Liu tree,
// TAN with Structure::kNaiveBayes, and the unsupervised outlier model.
//
// The constants are IEEE-754 bit patterns (and FNV-1a digests of bit
// patterns) that the former standalone classes — TanClassifier,
// NaiveBayesClassifier and OutlierClassifier, each with its own copy of
// the CPT, mutual-information and spanning-tree code — produced on
// seeded random datasets. The shared learner (models/chow_liu.h) and the
// empty-tree naive Bayes must reproduce every bit, because the golden
// predictions, replayed episode decisions and benchmark checksums all
// sit downstream of these numbers.
//
// Per case and backend the pin covers parents(), threshold(),
// prior_log_odds(), cpt_stats(), and digests of classify(),
// classify_expected() and score() over fixed query rows and predicted
// distributions, plus every smoothed likelihood() cell (Bayesian
// backends) or the surprisal() of each query row (outlier). One case
// runs at a denormal pseudo-count so that smoothed likelihoods underflow
// to zero and the impact tables take their log-difference fallback.
//
// The Chow–Liu edge weights are pinned on their own (kWeightPins): a
// last-bit drift in a weight need not flip any parents() entry, so the
// pins above could miss it. One case mixes alphabets from 2 to 14, the
// largest real alphabet (12 bins plus 2 guard bins). Its rows and the
// weight digests were recorded from the row-major pair loop that the
// column-major builder replaced.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/chow_liu.h"
#include "models/outlier.h"
#include "models/tan.h"

namespace prepare {
namespace {

struct PinCase {
  const char* name;
  std::uint64_t seed;
  std::size_t attributes;
  std::size_t rows;
  double alpha;
  bool outlier;  ///< the outlier model is pinned too (needs alpha >= 1e-3)
  std::int64_t max_alphabet = 6;  ///< alphabets are drawn from 2..max
};

constexpr PinCase kCases[] = {
    {"five_attr_alpha_half", 1, 5, 300, 0.5, true},
    {"eight_attr_alpha_milli", 2, 8, 200, 1e-3, true},
    {"thirteen_attr_alpha_half", 3, 13, 400, 0.5, true},
    {"denormal_alpha_fallback", 4, 4, 150,
     std::numeric_limits<double>::denorm_min(), false},
    {"one_attr_alpha_milli", 5, 1, 120, 1e-3, true},
    {"mixed_alphabet_2_to_14", 7, 12, 250, 1e-3, true, 14},
};
constexpr std::size_t kFallbackCase = 3;
constexpr std::size_t kMixedCase = 5;

constexpr std::size_t N = ChowLiuTree::kNoParent;

struct Pinned {
  std::vector<std::size_t> parents;
  std::uint64_t prior_log_odds, support_min, support_mean, log_odds_spread,
      threshold;
  std::uint64_t classify, expected, score, density;
};

// kTanPins[c] / kNaiveBayesPins[c] align with kCases; kOutlierPins with
// the cases that have `outlier` set.
const Pinned kTanPins[] = {
    // five_attr_alpha_half
    {{N, 0, 4, 0, 3},
     0xbff25e00735a620e, 0x0000000000000000, 0x403ac92492492492,
     0x401f9d102d9d2939, 0x0000000000000000,
     0x1ad5f77e93a62144, 0xa2133c1c350f2257, 0x1bf5bb4eecbe6166,
     0xd071d6b09910fbe5},
    // eight_attr_alpha_milli
    {{N, 0, 1, 1, 3, 2, 7, 2},
     0xbff3552e2524de51, 0x0000000000000000, 0x40150d79435e50d8,
     0x40348f924665043e, 0x0000000000000000,
     0xf8e8dbb1a6b86029, 0xac6c017197003467, 0x14b0e23935288c90,
     0x05ccd9ca7b878522},
    // thirteen_attr_alpha_half
    {{N, 0, 8, 4, 6, 7, 0, 6, 6, 12, 9, 2, 8},
     0xbff4a7477d58a453, 0x0000000000000000, 0x402b8362e0d8b836,
     0x4024048c5249804a, 0x0000000000000000,
     0xe725ae27a50f6d00, 0xd4defdde9c38de9d, 0x60263eeb2f9aa507,
     0xadd1263db23d9032},
    // denormal_alpha_fallback
    {{N, 0, 1, 2},
     0xbff02f84700434a8, 0x0000000000000000, 0x40187d6343eb1a1f,
     0x40975c0073ac9282, 0x0000000000000000,
     0x51fc9113d423435a, 0xc0be96b5ae1ef63b, 0x2aa11eff43fc0282,
     0x9c76903138a6aa91},
    // one_attr_alpha_milli
    {{N},
     0xbfedb1ec04f90e1d, 0x0000000000000000, 0x4028000000000000,
     0x40341d5342da2fdf, 0x0000000000000000,
     0x97127b2380692d7d, 0xa6908e9e1d8eccc1, 0xde48ae5921730d6c,
     0x256d0ecd027b132d},
    // mixed_alphabet_2_to_14
    {{N, 0, 1, 10, 3, 1, 7, 1, 7, 10, 7, 7},
     0xbff21802cdae49d0, 0x0000000000000000, 0x3ff3fbbca48e6355,
     0x403409c68f43a4d8, 0x0000000000000000,
     0xee15ea0222553ac6, 0xab6afddd37d9a34a, 0x77ad3604a0605e7f,
     0x2f2396d8080554cd},
};
const Pinned kNaiveBayesPins[] = {
    // five_attr_alpha_half
    {{N, N, N, N, N},
     0xbff25e00735a620e, 0x0000000000000000, 0x404cd89d89d89d8a,
     0x401a0d5e0b84113a, 0x0000000000000000,
     0x8ce5371bf5ba7cf9, 0xbb5bfdf576d0e720, 0xa2208b44d2c92adf,
     0xec2a8549f31733c2},
    // eight_attr_alpha_milli
    {{N, N, N, N, N, N, N, N},
     0xbff3552e2524de51, 0x0000000000000000, 0x40383e0f83e0f83e,
     0x4035532c9d7442ec, 0x0000000000000000,
     0x77d2f79ef2e55142, 0x7cd6501fd870225d, 0x7e95f6f8f42729a4,
     0xf928d17a1e4e5809},
    // thirteen_attr_alpha_half
    {{N, N, N, N, N, N, N, N, N, N, N, N, N},
     0xbff4a7477d58a453, 0x0000000000000000, 0x404c42c8590b2164,
     0x4024ecf16cb15f1c, 0x0000000000000000,
     0x2de639f5c8cfb5b3, 0x2583137ac1721bd2, 0x98f33c82f9992acb,
     0x36a4883a27804a1a},
    // denormal_alpha_fallback
    {{N, N, N, N},
     0xbff02f84700434a8, 0x0000000000000000, 0x4034000000000000,
     0x40975d850c99fc16, 0x0000000000000000,
     0x28c8628dccfdb36d, 0x62081d39efcdf3a1, 0x66f87f0b0d9b8c00,
     0x07c2724b2f5e510e},
    // one_attr_alpha_milli
    {{N},
     0xbfedb1ec04f90e1d, 0x0000000000000000, 0x4028000000000000,
     0x40341d5342da2fdf, 0x0000000000000000,
     0x97127b2380692d7d, 0xa6908e9e1d8eccc1, 0xde48ae5921730d6c,
     0x256d0ecd027b132d},
    // mixed_alphabet_2_to_14
    {{N, N, N, N, N, N, N, N, N, N, N, N},
     0xbff21802cdae49d0, 0x0000000000000000, 0x402c0991f1a51588,
     0x40347191d219cce4, 0x0000000000000000,
     0x682531e0aeb2ff5e, 0xfc5d44bc5385e8d1, 0xcaae8235750ff3e6,
     0x26b13ef089609533},
};
const Pinned kOutlierPins[] = {
    // five_attr_alpha_half
    {{N, 0, 4, 0, 3},
     0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
     0x0000000000000000, 0x40231a5192659a7c,
     0xbd76e499b29cc826, 0x1586ddbb07d00565, 0x6f99bbcb07266c99,
     0x3f797f7c69a14b1a},
    // eight_attr_alpha_milli
    {{N, 0, 1, 0, 3, 3, 0, 6},
     0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
     0x0000000000000000, 0x402dd2fa8d1e06ea,
     0xc2de51b76eead170, 0x26517a646417e2ad, 0x084d29c0149e2c33,
     0x9eb756e75f6f32cd},
    // thirteen_attr_alpha_half
    {{N, 0, 11, 6, 3, 7, 0, 6, 6, 0, 9, 12, 6},
     0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
     0x0000000000000000, 0x40378aa0c8ed68d6,
     0x28b648a81fd7b2a1, 0xcb5887f1468eb8eb, 0xd3cc7a7a014e052d,
     0xd25f08384ba6b52d},
    // one_attr_alpha_milli
    {{N},
     0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
     0x0000000000000000, 0x400df4c130faea9d,
     0xbb53797c95307518, 0xf02539ff096b7fa5, 0xce872c730754a0f2,
     0x99592c7e7434fe96},
    // mixed_alphabet_2_to_14
    {{N, 0, 1, 9, 3, 1, 0, 6, 7, 6, 9, 6},
     0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
     0x0000000000000000, 0x403bd10c0fad5789,
     0xbd0325e8212ca1db, 0x76578a268744d76e, 0x70efaa16377f7f78,
     0xd3e79fbcd4291de2},
};

/// FNV-1a digests of every Chow–Liu edge weight, row by row over the
/// full n x n matrix, aligned with kCases: TAN's
/// conditional_mutual_information(i, j) and the outlier mode's
/// learn_chow_liu_tree(data, alpha, false).weights.
struct WeightPins {
  std::uint64_t tan_cmi, plain_mi;
};
const WeightPins kWeightPins[] = {
    {0xcf5b39e74cb976ab, 0xd7c463a6cfdd2e43},  // five_attr_alpha_half
    {0x13406eb4984eada7, 0xc818472ea9f50651},  // eight_attr_alpha_milli
    {0x173fdd1b48aacaef, 0xaa336a680a746b67},  // thirteen_attr_alpha_half
    {0x56790afcc3fed3f3, 0x2b12dcbc990bfbdd},  // denormal_alpha_fallback
    {0xaf63bd4c8601b7df, 0xaf63bd4c8601b7df},  // one_attr_alpha_milli
    {0x73adfc3ea0622dd5, 0x1896d38ec9f7bc23},  // mixed_alphabet_2_to_14
};

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(double v) { add_bits(std::bit_cast<std::uint64_t>(v)); }
  void add_bits(std::uint64_t w) { h = (h ^ w) * 0x100000001b3ULL; }
};

/// Attributes cycle through three roles: label-driven, a noisy copy of
/// the previous attribute (so the tree has edges worth learning), and
/// pure noise. Alphabets vary per attribute in 2..max_alphabet.
LabeledDataset pin_dataset(const PinCase& pc) {
  Rng rng(pc.seed);
  LabeledDataset d;
  for (std::size_t a = 0; a < pc.attributes; ++a)
    d.alphabet.push_back(
        static_cast<std::size_t>(rng.uniform_int(2, pc.max_alphabet)));
  for (std::size_t r = 0; r < pc.rows; ++r) {
    const bool abnormal = rng.chance(0.25);
    std::vector<std::size_t> row(pc.attributes);
    for (std::size_t a = 0; a < pc.attributes; ++a) {
      const auto top = static_cast<std::int64_t>(d.alphabet[a]) - 1;
      std::int64_t v;
      if (a % 3 == 0) {
        v = abnormal ? rng.uniform_int(top / 2, top)
                     : rng.uniform_int(0, top / 2);
      } else if (a % 3 == 1) {
        v = std::min<std::int64_t>(static_cast<std::int64_t>(row[a - 1]), top);
        if (rng.chance(0.2)) v = rng.uniform_int(0, top);
      } else {
        v = rng.uniform_int(0, top);
      }
      row[a] = static_cast<std::size_t>(v);
    }
    d.rows.push_back(std::move(row));
    d.abnormal.push_back(abnormal);
  }
  return d;
}

/// The first 12 training rows, then 12 uniformly random rows.
std::vector<std::vector<std::size_t>> pin_queries(const LabeledDataset& d,
                                                  Rng* rng) {
  std::vector<std::vector<std::size_t>> q(
      d.rows.begin(), d.rows.begin() + std::min<std::size_t>(12, d.rows.size()));
  for (std::size_t k = 0; k < 12; ++k) {
    std::vector<std::size_t> row;
    for (std::size_t b : d.alphabet)
      row.push_back(static_cast<std::size_t>(
          rng->uniform_int(0, static_cast<std::int64_t>(b) - 1)));
    q.push_back(std::move(row));
  }
  return q;
}

/// 12 predicted-distribution sets; about 30% of the cells are zero so
/// the expectation's zero-mass skip is exercised.
std::vector<std::vector<Distribution>> pin_dists(const LabeledDataset& d,
                                                 Rng* rng) {
  std::vector<std::vector<Distribution>> out;
  for (std::size_t k = 0; k < 12; ++k) {
    std::vector<Distribution> dists;
    for (std::size_t b : d.alphabet) {
      Distribution p(b);
      for (std::size_t v = 0; v < b; ++v)
        p[v] = rng->chance(0.3) ? 0.0 : rng->uniform();
      p.normalize();
      dists.push_back(std::move(p));
    }
    out.push_back(std::move(dists));
  }
  return out;
}

/// Everything but `density`, which is backend-specific.
Pinned pin_common(const Classifier& c, const LabeledDataset& d) {
  Pinned o{};
  o.prior_log_odds = std::bit_cast<std::uint64_t>(c.prior_log_odds().value());
  const auto stats = c.cpt_stats();
  o.support_min = std::bit_cast<std::uint64_t>(stats.support_min);
  o.support_mean = std::bit_cast<std::uint64_t>(stats.support_mean);
  o.log_odds_spread = std::bit_cast<std::uint64_t>(stats.log_odds_spread);
  Digest classify, expected, score;
  Rng rng(99);
  for (const auto& row : pin_queries(d, &rng)) {
    const auto cls = c.classify(row);
    classify.add(cls.score.value());
    classify.add_bits(cls.abnormal ? 1 : 0);
    for (double impact : cls.impacts) classify.add(impact);
    score.add(c.score(row).value());
  }
  for (const auto& dists : pin_dists(d, &rng)) {
    const auto cls = c.classify_expected(dists);
    expected.add(cls.score.value());
    expected.add_bits(cls.abnormal ? 1 : 0);
    for (double impact : cls.impacts) expected.add(impact);
  }
  o.classify = classify.h;
  o.expected = expected.h;
  o.score = score.h;
  return o;
}

/// Pins a trained TAN (either structure): the common outputs plus every
/// smoothed likelihood cell, in (attribute, parent value, value, class)
/// order. Sets *underflow when some cell is exactly zero.
Pinned pin_tan(const TanClassifier& tan, const LabeledDataset& d,
               bool* underflow) {
  Pinned o = pin_common(tan, d);
  o.parents = tan.parents();
  Digest density;
  for (std::size_t i = 0; i < d.attributes(); ++i) {
    const std::size_t p = tan.parents()[i];
    const std::size_t parent_values = p == N ? 1 : d.alphabet[p];
    for (std::size_t pv = 0; pv < parent_values; ++pv)
      for (std::size_t v = 0; v < d.alphabet[i]; ++v)
        for (bool abnormal : {false, true}) {
          const double l =
              tan.likelihood(i, BinIndex{v}, BinIndex{pv}, abnormal).value();
          if (l == 0.0) *underflow = true;
          density.add(l);
        }
  }
  o.density = density.h;
  return o;
}

void expect_pinned(const Pinned& got, const Pinned& want, const char* name) {
  SCOPED_TRACE(name);
  EXPECT_EQ(got.parents, want.parents);
  EXPECT_EQ(got.prior_log_odds, want.prior_log_odds);
  EXPECT_EQ(got.support_min, want.support_min);
  EXPECT_EQ(got.support_mean, want.support_mean);
  EXPECT_EQ(got.log_odds_spread, want.log_odds_spread);
  EXPECT_EQ(got.threshold, want.threshold);
  EXPECT_EQ(got.classify, want.classify);
  EXPECT_EQ(got.expected, want.expected);
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(got.density, want.density);
}

TEST(ClassifierBitPin, TanTree) {
  for (std::size_t c = 0; c < std::size(kCases); ++c) {
    const auto data = pin_dataset(kCases[c]);
    TanClassifier tan(kCases[c].alpha);
    tan.train(data);
    bool underflow = false;
    expect_pinned(pin_tan(tan, data, &underflow), kTanPins[c], kCases[c].name);
  }
}

TEST(ClassifierBitPin, NaiveBayesIsTheEmptyTree) {
  for (std::size_t c = 0; c < std::size(kCases); ++c) {
    const auto data = pin_dataset(kCases[c]);
    TanClassifier nb(kCases[c].alpha, TanClassifier::Structure::kNaiveBayes);
    nb.train(data);
    bool underflow = false;
    expect_pinned(pin_tan(nb, data, &underflow), kNaiveBayesPins[c],
                  kCases[c].name);
  }
}

TEST(ClassifierBitPin, Outlier) {
  std::size_t pinned = 0;
  for (const PinCase& pc : kCases) {
    if (!pc.outlier) continue;
    const auto data = pin_dataset(pc);
    OutlierClassifier outlier(0.995, pc.alpha, 1.25);
    outlier.train(data);
    Pinned got = pin_common(outlier, data);
    got.parents = outlier.parents();
    got.threshold = std::bit_cast<std::uint64_t>(outlier.threshold());
    Digest density;
    Rng rng(99);
    for (const auto& row : pin_queries(data, &rng))
      density.add(outlier.surprisal(row));
    got.density = density.h;
    ASSERT_LT(pinned, std::size(kOutlierPins));
    expect_pinned(got, kOutlierPins[pinned++], pc.name);
  }
  EXPECT_EQ(pinned, std::size(kOutlierPins));
}

TEST(ClassifierBitPin, ChowLiuWeights) {
  for (std::size_t c = 0; c < std::size(kCases); ++c) {
    SCOPED_TRACE(kCases[c].name);
    const auto data = pin_dataset(kCases[c]);
    TanClassifier tan(kCases[c].alpha);
    tan.train(data);
    const ChowLiuTree plain =
        learn_chow_liu_tree(data, kCases[c].alpha, /*class_conditional=*/false);
    Digest tan_cmi, plain_mi;
    for (std::size_t i = 0; i < data.attributes(); ++i)
      for (std::size_t j = 0; j < data.attributes(); ++j) {
        tan_cmi.add(tan.conditional_mutual_information(i, j));
        plain_mi.add(plain.weights[i][j]);
      }
    EXPECT_EQ(tan_cmi.h, kWeightPins[c].tan_cmi) << std::hex << tan_cmi.h;
    EXPECT_EQ(plain_mi.h, kWeightPins[c].plain_mi) << std::hex << plain_mi.h;
  }
}

// The mixed case must span the alphabets it is named for.
TEST(ClassifierBitPin, MixedCaseSpansTwoToFourteen) {
  const auto data = pin_dataset(kCases[kMixedCase]);
  EXPECT_EQ(*std::min_element(data.alphabet.begin(), data.alphabet.end()), 2u);
  EXPECT_EQ(*std::max_element(data.alphabet.begin(), data.alphabet.end()), 14u);
}

// The denormal-alpha case must actually reach the impact tables'
// log-difference fallback, or the pin above would not cover it.
TEST(ClassifierBitPin, FallbackCaseUnderflowsBothStructures) {
  const PinCase& pc = kCases[kFallbackCase];
  const auto data = pin_dataset(pc);
  for (auto structure : {TanClassifier::Structure::kTree,
                         TanClassifier::Structure::kNaiveBayes}) {
    TanClassifier tan(pc.alpha, structure);
    tan.train(data);
    bool underflow = false;
    pin_tan(tan, data, &underflow);
    EXPECT_TRUE(underflow);
  }
}

}  // namespace
}  // namespace prepare
