// Public umbrella header: every options struct a deployment tunes.
#ifndef TIERBASE_PUBLIC_OPTIONS_H_
#define TIERBASE_PUBLIC_OPTIONS_H_
#include "cache/hash_engine.h"      // HashEngineOptions.
#include "core/options.h"           // TierBaseOptions, policies.
#include "lsm/lsm_store.h"          // LsmOptions.
#include "pmem/pmem_device.h"       // PmemOptions.
#include "threading/elastic_executor.h"  // ElasticOptions.
#endif  // TIERBASE_PUBLIC_OPTIONS_H_
