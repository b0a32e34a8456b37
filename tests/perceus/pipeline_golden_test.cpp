//===- tests/perceus/pipeline_golden_test.cpp - Pipeline IR identity ---------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the printed IR that `runPipeline` emits, byte for byte, as 64-bit
/// FNV-1a hashes: every shipped program under all five pass
/// configurations, and 200 seeded generator terms per configuration.
/// The printer shows every dup/drop in order and every fresh symbol with
/// its counter, so a hash catches any change in RC-op order, in `fresh()`
/// call order, or in node shape. The pins were captured before the
/// free-variable analysis became a flat per-function table; an
/// optimisation of the passes must leave all of them unchanged.
///
/// On a mismatch the test prints the actual table, ready to paste — but
/// only do that for a change that is meant to alter the emitted IR.
///
//===----------------------------------------------------------------------===//

#include "calculus/Generator.h"
#include "ir/Printer.h"
#include "lang/Resolver.h"
#include "perceus/Pipeline.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

using namespace perceus;

namespace {

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

struct NamedConfig {
  const char *Name;
  PassConfig Config;
};

const NamedConfig Configs[] = {
    {"perceus", PassConfig::perceusFull()},
    {"perceus-borrow", PassConfig::perceusBorrow()},
    {"perceus-noopt", PassConfig::perceusNoOpt()},
    {"scoped-rc", PassConfig::scoped()},
    {"gc", PassConfig::gc()},
};

struct NamedSource {
  const char *Name;
  const char *(*Source)();
};

const NamedSource Sources[] = {
    {"rbtree", rbtreeSource},   {"rbtree-ck", rbtreeCkSource},
    {"deriv", derivSource},     {"nqueens", nqueensSource},
    {"cfold", cfoldSource},     {"tmap", tmapSource},
    {"mapsum", mapSumSource},   {"msort", msortSource},
    {"queue", queueSource},     {"shared-tree", sharedTreeSource},
};

/// Expected hash per (program, config), in Sources x Configs order.
const uint64_t ProgramHashes[10][5] = {
    {0x05bd735dda817889ULL, 0x97516ffd1e2aee8fULL, 0x29a58bc8a98cbbd5ULL,
     0x12d1a01f50175facULL, 0x0034f09d2723e129ULL},
    {0xfa0170c1fad22b2eULL, 0x9941006261f3d1d3ULL, 0x63ef02c4060feee4ULL,
     0x2e9c3b1b2c9f2d7dULL, 0x0706b3809bff5c6bULL},
    {0x5349a365bd303de8ULL, 0x2195207e8495ebe8ULL, 0x16aa41a95e054179ULL,
     0x46781d4b69809105ULL, 0xe698ab3bdd19ac6bULL},
    {0xdfd65cb2eb10a2c3ULL, 0x862a82ba6c6eacbeULL, 0x4ff0d0c578e36541ULL,
     0x1656b802823aafcaULL, 0xb69d7110aa8b74d9ULL},
    {0x2af128f9505725f9ULL, 0x259196277727f2dcULL, 0x89d12d7220fcf236ULL,
     0xbdbe8963e7b7b035ULL, 0xf1b0858a79bec6aeULL},
    {0xecfc727329e6221dULL, 0x4276382882bc8a24ULL, 0x851f2f5a92620349ULL,
     0x55edbd1eb37069b7ULL, 0xd61cb1bc2c5daca0ULL},
    {0xeea8764d990bc3a8ULL, 0x4dad755e7e37268fULL, 0x10ed7f9d081eb04aULL,
     0x41ee024746acfb17ULL, 0xc6370675caff34aaULL},
    {0x5e21653eb6b48ed4ULL, 0x820a856316dc15f0ULL, 0x830fb3f26d6a0e29ULL,
     0x8ba1436bf0931269ULL, 0xd529f4e41b843181ULL},
    {0xd05da92429c373d9ULL, 0xd05da92429c373d9ULL, 0x670966e7a2d6f065ULL,
     0x05e3a54399ebe0f0ULL, 0x9cac1a033f47f35aULL},
    {0xe7bc887b9ba589bfULL, 0x0dcd81a581e81eeeULL, 0xd80d70df360ae2ddULL,
     0x68464bfeb4b38247ULL, 0xb4a32f4f4f19d93fULL},
};

/// Expected hash per config over the 200 generated terms: the FNV-1a of
/// the concatenated per-seed printouts.
const uint64_t GeneratedHashes[5] = {
    0xe21f3bc5b78cacbcULL, 0xe21f3bc5b78cacbcULL, 0xfbcd2e2fd5df6610ULL,
    0x81538eacfe4eec81ULL, 0xd816abab6d74e002ULL};

constexpr unsigned NumGenerated = 200;

std::string pipelineText(const char *Source, const PassConfig &Config) {
  Program P;
  DiagnosticEngine D;
  EXPECT_TRUE(compileSource(Source, P, D)) << D.str();
  runPipeline(P, Config);
  return printProgram(P);
}

std::string generatedText(unsigned Seed, const PassConfig &Config) {
  Program P;
  Rng R(Seed);
  generateTerm(P, R, 6);
  runPipeline(P, Config);
  return printProgram(P);
}

TEST(PipelineGolden, ShippedProgramsUnderEveryConfig) {
  uint64_t Actual[10][5];
  bool Same = true;
  for (size_t S = 0; S != 10; ++S)
    for (size_t C = 0; C != 5; ++C) {
      Actual[S][C] =
          fnv1a(pipelineText(Sources[S].Source(), Configs[C].Config));
      EXPECT_EQ(Actual[S][C], ProgramHashes[S][C])
          << Sources[S].Name << " under " << Configs[C].Name;
      Same = Same && Actual[S][C] == ProgramHashes[S][C];
    }
  if (!Same) {
    std::printf("actual ProgramHashes:\n");
    for (auto &Row : Actual)
      std::printf("    {0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL,\n     0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL},\n",
                  Row[0], Row[1], Row[2], Row[3], Row[4]);
  }
}

TEST(PipelineGolden, GeneratedTermsUnderEveryConfig) {
  uint64_t Actual[5];
  bool Same = true;
  for (size_t C = 0; C != 5; ++C) {
    std::string All;
    for (unsigned Seed = 1; Seed <= NumGenerated; ++Seed)
      All += generatedText(Seed, Configs[C].Config);
    Actual[C] = fnv1a(All);
    EXPECT_EQ(Actual[C], GeneratedHashes[C]) << Configs[C].Name;
    Same = Same && Actual[C] == GeneratedHashes[C];
  }
  if (!Same)
    std::printf("actual GeneratedHashes: {0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL,\n 0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL}\n",
                Actual[0], Actual[1], Actual[2], Actual[3], Actual[4]);
}

} // namespace
