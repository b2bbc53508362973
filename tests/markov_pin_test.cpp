// Exact-bit pin of the Markov look-ahead at context lengths 1, 2 and 3.
//
// The constants are the IEEE-754 bit patterns that the former per-order
// classes (MarkovChain, TwoDependentMarkov and NDependentMarkov(3, ...))
// produced for a seeded random walk with mixed learn/no-learn observe():
// predict_into at horizons 1, 5 and 24, then every element of a 24-step
// predict_path_into, each distribution laid out bin by bin. MarkovModel
// replaced those classes and must reproduce every bit, because the
// golden predictions, replayed episode decisions and benchmark
// checksums all sit downstream of these numbers.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/markov.h"

namespace prepare {
namespace {

constexpr std::uint64_t kPinOrder1[] = {
    0x3f7702e05c0b8170, 0x3fd2564ac9592b25,
    0x3fda3f47e8fd1fa4, 0x3fd30e61cc398731,
    0x3fc361942cbc0978, 0x3fca83be03e05b8b,
    0x3fd61061328c57be, 0x3fd2fcf5b52575c3,
    0x3fc887dd3ca0c730, 0x3fcc327ab5d32603,
    0x3fd4cc419f2042a6, 0x3fd0d69267a5c6c0,
    0x3f7702e05c0b8170, 0x3fd2564ac9592b25,
    0x3fda3f47e8fd1fa4, 0x3fd30e61cc398731,
    0x3fb5a3832c55c05c, 0x3fca90e0b55329a4,
    0x3fd98a43a95466d2, 0x3fd3c46b30ec9444,
    0x3fbddf8f7f09fbe4, 0x3fca3be5f1414998,
    0x3fd76b62a59c1514, 0x3fd3fec68200c727,
    0x3fc19b2a89154f4a, 0x3fca30e3dd7528a9,
    0x3fd694b4dd45e6fe, 0x3fd38543ef74dd08,
    0x3fc361942cbc0978, 0x3fca83be03e05b8b,
    0x3fd61061328c57be, 0x3fd2fcf5b52575c3,
    0x3fc4a7421b918cc0, 0x3fcadb51dba42e9c,
    0x3fd5bb3d8ede9251, 0x3fd2837875869001,
    0x3fc598055c99a243, 0x3fcb27db06d7f93a,
    0x3fd57f60edaca22e, 0x3fd220aee09a9014,
    0x3fc64d14f4feb7d3, 0x3fcb65a55018e5e1,
    0x3fd5539199de3968, 0x3fd1d3114395f7c0,
    0x3fc6d6593309553f, 0x3fcb960aaec6b112,
    0x3fd532c933142c57, 0x3fd19704dc03d082,
    0x3fc73ed15d102fdd, 0x3fcbbb6e7a8b9f18,
    0x3fd519fdef8f5006, 0x3fd168e224a2c881,
    0x3fc78e78b3e9147c, 0x3fcbd823cece2776,
    0x3fd50724b4c7258b, 0x3fd1458d09dd3c7e,
    0x3fc7cb419f2b367c, 0x3fcbee1e863f9568,
    0x3fd4f8c7a165dbc4, 0x3fd12a884be4be4c,
    0x3fc7f9a928a8f8a6, 0x3fcbfeeca49dd778,
    0x3fd4edd24e5eef09, 0x3fd115e2cafda8ea,
    0x3fc81d17f60fb98a, 0x3fcc0bc3f06b6161,
    0x3fd4e574e9ea0c5b, 0x3fd1061d22d86632,
    0x3fc83826b91723ab, 0x3fcc159310d1fc87,
    0x3fd4df11e930c64f, 0x3fd0fa1131daa997,
    0x3fc84cd071afb713, 0x3fcc1d110615a43e,
    0x3fd4da3166c2ba4d, 0x3fd0f0dddd5a980a,
    0x3fc85c9818001144, 0x3fcc22c9d5f00d59,
    0x3fd4d677f882a357, 0x3fd0e9d710854d5a,
    0x3fc868a51e308554, 0x3fcc272887d1ce51,
    0x3fd4d39fdc189932, 0x3fd0e47950e63cfb,
    0x3fc871d91e303941, 0x3fcc2a7ee12bc1bb,
    0x3fd4d173d020d4db, 0x3fd0e06030312da7,
    0x3fc878e05f9efeb6, 0x3fcc2d0b57cf02de,
    0x3fd4cfcb2aa42d3b, 0x3fd0dd3ef9a4d1fc,
    0x3fc87e3e73263ea7, 0x3fcc2efda024b126,
    0x3fd4ce86de404400, 0x3fd0dadb181a441b,
    0x3fc88257d21920df, 0x3fcc307a291861ea,
    0x3fd4cd8f344c603d, 0x3fd0d907ce1ade5e,
    0x3fc885793785d05b, 0x3fcc319cc5b3de1a,
    0x3fd4ccd210bf929d, 0x3fd0d7a2f0a39628,
    0x3fc887dd3ca0c730, 0x3fcc327ab5d32603,
    0x3fd4cc419f2042a6, 0x3fd0d69267a5c6c0,
};
constexpr std::uint64_t kPinOrder2[] = {
    0x3f5460cbc7f5cf9a, 0x3f5460cbc7f5cf9a,
    0x3fd98d5f85bb3950, 0x3fe324ef715a6d88,
    0x3fc2fc11d756ae0c, 0x3fc891980c530267,
    0x3fd28f2c80dbaaa2, 0x3fd7a9fe8d4f7d26,
    0x3fd07d13d617ca74, 0x3fd0cbcd82933900,
    0x3fce661272a0b4a4, 0x3fcf082adc094472,
    0x3f5460cbc7f5cf9a, 0x3f5460cbc7f5cf9a,
    0x3fd98d5f85bb3950, 0x3fe324ef715a6d88,
    0x3f623d3669bf3f34, 0x3fc1e83f8e281bb1,
    0x3fd7176912af597b, 0x3fdfcffcb9691a2e,
    0x3fb3e22432ca7f38, 0x3fc2800c542a4e14,
    0x3fd514aa3d79f292, 0x3fdcb2c68bbe4696,
    0x3fbdb8680aaf5316, 0x3fc63284c13201a6,
    0x3fd37cf1cdca6e60, 0x3fd9fbb1cef0bc08,
    0x3fc2fc11d756ae0c, 0x3fc891980c530267,
    0x3fd28f2c80dbaaa2, 0x3fd7a9fe8d4f7d26,
    0x3fc60cd7495075af, 0x3fca9df935f1cbc8,
    0x3fd1d230f8d6235d, 0x3fd5d866c788bbe7,
    0x3fc87c4b08081194, 0x3fcc2a464aebb6c8,
    0x3fd13d8b99bd0372, 0x3fd46f2bbcc91862,
    0x3fca617b12aa39b4, 0x3fcd60db1d6de075,
    0x3fd0c8c099db0246, 0x3fd356144e18f0a8,
    0x3fcbdc4a72822324, 0x3fce52a2f7d71c26,
    0x3fd06dbc43730ed0, 0x3fd27acd0760518c,
    0x3fcd039a27a0bae1, 0x3fcf0f59521b630e,
    0x3fd026c76f796590, 0x3fd1cfbed3a88b7a,
    0x3fcde9f2a863b8f7, 0x3fcfa2874c9682e1,
    0x3fcfdee21c394494, 0x3fd14a51f7663fcc,
    0x3fce9d9aca65b74d, 0x3fd00aa97c83c1b4,
    0x3fcf888f0989372e, 0x3fd0e2419984c711,
    0x3fcf29bb6c4d3522, 0x3fd0376dfe8b1afe,
    0x3fcf453a402e5ab7, 0x3fd091172b371d15,
    0x3fcf97068bc8f25e, 0x3fd05a58b88bc065,
    0x3fcf10b640bc6d3e, 0x3fd051c8e1318fcc,
    0x3fcfec45325fafa9, 0x3fd0759495ffcdf7,
    0x3fcee7c0758cb0c9, 0x3fd02068960a01d0,
    0x3fd01760fe1e0400, 0x3fd08ad25d014ff3,
    0x3fcec7cdf62a2baa, 0x3fcff3cb53972c68,
    0x3fd0314ec4b7166d, 0x3fd09b639deb93ae,
    0x3fceaee30d63c444, 0x3fcfb7b82d56e788,
    0x3fd04587f8826d70, 0x3fd0a84fa07aed5f,
    0x3fce9b73c145ece6, 0x3fcf88dd0cbf5d7e,
    0x3fd0554dfc33e444, 0x3fd0b263be9d69a2,
    0x3fce8c4b37f0e6d0, 0x3fcf6451526c7d67,
    0x3fd0619b7a249bf0, 0x3fd0ba402279244a,
    0x3fce80788d97ed2c, 0x3fcf47d0392c925d,
    0x3fd06b33f4f50885, 0x3fd0c061b83cf486,
    0x3fce773fdf8bbb12, 0x3fcf3194c6104ad7,
    0x3fd072afea0cafea, 0x3fd0c529ef242a9c,
    0x3fce700ea2cd332b, 0x3fcf203daad117cc,
    0x3fd07886491a6b06, 0x3fd0c8e4c5f0f6c4,
    0x3fce6a728b1b3652, 0x3fcf12b756ce061a,
    0x3fd07d13d617ca74, 0x3fd0cbcd82933900,
    0x3fce661272a0b4a4, 0x3fcf082adc094472,
};
constexpr std::uint64_t kPinOrder3[] = {
    0x3f89ec8e951033da, 0x3f89ec8e951033da,
    0x3fd51033d91d2a21, 0x3fe4a8819ec8e951,
    0x3fbe03eca293def7, 0x3fcc5ab786407031,
    0x3fd317325722a00a, 0x3fd73a76bd183020,
    0x3fca5ef3662be52d, 0x3fd1d08ca8c8ee58,
    0x3fd1724f35087425, 0x3fcf1b54de3155d7,
    0x3f89ec8e951033da, 0x3f89ec8e951033da,
    0x3fd51033d91d2a21, 0x3fe4a8819ec8e951,
    0x3f8fa600a5a8b86b, 0x3fb8042e6993e9d9,
    0x3fd92be60e5888b6, 0x3fdfd5de52153712,
    0x3fab4bf09d3ac316, 0x3fc542fe26b12536,
    0x3fd47de95fa0054c, 0x3fdd771979600fb6,
    0x3fb73b6b2bf401b7, 0x3fca2dae4ec63b77,
    0x3fd2d324a4668c5b, 0x3fda47296939557c,
    0x3fbe03eca293def7, 0x3fcc5ab786407031,
    0x3fd317325722a00a, 0x3fd73a76bd183020,
    0x3fc151e1125ed71c, 0x3fce4f815df4fd9b,
    0x3fd2e9f37d3fd5e7, 0x3fd5455b4a963fbe,
    0x3fc33ba3c1f0d6e5, 0x3fcfcd35db2e4efb,
    0x3fd289e6c031df29, 0x3fd3f1ac713e8de7,
    0x3fc4d4a6aa058a3d, 0x3fd062b49ad53e04,
    0x3fd24d04045becc3, 0x3fd2e5f40bcc1018,
    0x3fc61722cc41c247, 0x3fd0bb8e178167fb,
    0x3fd220fdc683fadb, 0x3fd217e2bbd9bc06,
    0x3fc70fec5ad49dc5, 0x3fd1001bfc4affc6,
    0x3fd1fa17abc6057d, 0x3fd17dd62a84abdb,
    0x3fc7d2146567c37f, 0x3fd13338c3f9e7db,
    0x3fd1db1206e81322, 0x3fd108ab026a2344,
    0x3fc869c0b0b47cb2, 0x3fd1596551751ef9,
    0x3fd1c33f51fb371f, 0x3fd0ae7b04356b90,
    0x3fc8dfc2d7e13944, 0x3fd1766ad475616e,
    0x3fd1b079c5e3479e, 0x3fd06939f9b6ba53,
    0x3fc93b734111701d, 0x3fd18c8f45876834,
    0x3fd1a1acb3caaf56, 0x3fd0340a66253067,
    0x3fc9829fba39af55, 0x3fd19d77a1051220,
    0x3fd19626c8238447, 0x3fd00b11b9ba91f0,
    0x3fc9b9ceeb227e3d, 0x3fd1aa6e59fdf024,
    0x3fd18d36468fe33e, 0x3fcfd6e7d3c1dafd,
    0x3fc9e493ebc69c1c, 0x3fd1b4665351e3c3,
    0x3fd1864458dc5ff0, 0x3fcfa616bbdcdc7e,
    0x3fca05b844ce3b77, 0x3fd1bc137850f444,
    0x3fd180df1bb20045, 0x3fcf8062932bdb7a,
    0x3fca1f6493c5b9f3, 0x3fd1c1fe78decad4,
    0x3fd17caf994a7c82, 0x3fcf633f47e7b760,
    0x3fca33463296d50e, 0x3fd1c68f9b6a68c0,
    0x3fd1797142f84006, 0x3fcf4cb810a3d969,
    0x3fca42aae6aea3d5, 0x3fd1ca1687398810,
    0x3fd176ee029d3746, 0x3fcf3b4c05a3dd7c,
    0x3fca4e95b32d5060, 0x3fd1ccd03e6a508b,
    0x3fd174fbc2c24650, 0x3fcf2dd24a7981ea,
    0x3fca57cf5a952857, 0x3fd1ceeb998cc2d2,
    0x3fd17379ecd7bbb7, 0x3fcf236598a1da96,
    0x3fca5ef3662be52d, 0x3fd1d08ca8c8ee58,
    0x3fd1724f35087425, 0x3fcf1b54de3155d7,
};

/// Trains on the first 240 symbols of a seeded random walk over the
/// alphabet, feeds the last 60 through observe() learning two of every
/// three, and returns the bits of every pinned output in order.
std::vector<std::uint64_t> pinned_outputs(MarkovModel& m,
                                          std::size_t alphabet,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> walk;
  std::int64_t s = 0;
  const auto top = static_cast<std::int64_t>(alphabet) - 1;
  for (std::size_t i = 0; i < 300; ++i) {
    s = std::clamp<std::int64_t>(s + rng.uniform_int(-1, 1), 0, top);
    walk.push_back(static_cast<std::size_t>(s));
  }
  m.train(std::vector<std::size_t>(walk.begin(), walk.begin() + 240));
  for (std::size_t i = 240; i < walk.size(); ++i)
    m.observe(BinIndex{walk[i]}, /*learn=*/i % 3 != 0);

  std::vector<std::uint64_t> bits;
  auto append = [&](const Distribution& d) {
    for (std::size_t j = 0; j < d.size(); ++j)
      bits.push_back(std::bit_cast<std::uint64_t>(d[j]));
  };
  Distribution d;
  for (std::size_t steps : {1u, 5u, 24u}) {
    m.predict_into(TickIndex{steps}, &d);
    append(d);
  }
  std::vector<Distribution> path;
  m.predict_path_into(TickIndex{24}, &path);
  for (const Distribution& p : path) append(p);
  return bits;
}

void expect_bits(const std::vector<std::uint64_t>& got,
                 const std::uint64_t* want, std::size_t want_size) {
  ASSERT_EQ(got.size(), want_size);
  for (std::size_t i = 0; i < want_size; ++i)
    EXPECT_EQ(got[i], want[i]) << "pinned value " << i;
}

TEST(MarkovBitPin, Order1MatchesSimpleChain) {
  MarkovModel m(1, 4, 0.5);
  expect_bits(pinned_outputs(m, 4, 101), kPinOrder1, std::size(kPinOrder1));
}

TEST(MarkovBitPin, Order2MatchesTwoDependent) {
  MarkovModel m(2, 4, 0.05);
  expect_bits(pinned_outputs(m, 4, 102), kPinOrder2, std::size(kPinOrder2));
}

TEST(MarkovBitPin, Order3MatchesNDependent) {
  MarkovModel m(3, 4, 0.2);
  expect_bits(pinned_outputs(m, 4, 103), kPinOrder3, std::size(kPinOrder3));
}

}  // namespace
}  // namespace prepare
