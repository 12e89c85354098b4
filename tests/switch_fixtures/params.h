// Fixture for tests/switch_test.py: a parameter tree with three switches,
// two of them named `enabled`. src/ablation.cpp sets all but one.
#pragma once

namespace fixture {

struct ReliabilityParams {
  bool enabled = true;  // set nowhere: the check must name it
  int window = 16;
};

struct RegCacheParams {
  bool enabled = true;
};

struct VmmcParams {
  bool pipeline_dma = true;
  ReliabilityParams reliability;
  RegCacheParams regcache;
};

struct Params {
  VmmcParams vmmc;
};

}  // namespace fixture
