#include "core/frontend_cache.h"

#include <list>
#include <mutex>
#include <unordered_map>

#include "core/options.h"
#include "lang/frontend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/pass.h"

namespace mphls {

namespace {

thread_local bool tlsSawHit = false;
thread_local bool tlsSawMiss = false;

std::string keyOf(const std::string& source, const std::string& top,
                  OptLevel opt) {
  // '\x1f' cannot appear in BDL identifiers, so the key is unambiguous.
  std::string key;
  key.reserve(source.size() + top.size() + 4);
  key += static_cast<char>('0' + static_cast<int>(opt));
  key += '\x1f';
  key += top;
  key += '\x1f';
  key += source;
  return key;
}

}  // namespace

struct FrontendCache::Impl {
  struct Entry {
    std::string key;
    std::shared_ptr<const Function> fn;
  };

  mutable std::mutex m;
  std::list<Entry> lru;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index;
  std::size_t hits = 0;
  std::size_t misses = 0;
};

FrontendCache::FrontendCache() : impl_(std::make_unique<Impl>()) {}
FrontendCache::~FrontendCache() = default;

FrontendCache& FrontendCache::global() {
  static FrontendCache cache;
  return cache;
}

std::shared_ptr<const Function> FrontendCache::get(const std::string& source,
                                                   const std::string& top,
                                                   OptLevel opt) {
  Impl& im = impl();
  const std::string key = keyOf(source, top, opt);
  {
    std::lock_guard<std::mutex> lk(im.m);
    auto it = im.index.find(key);
    if (it != im.index.end()) {
      im.lru.splice(im.lru.begin(), im.lru, it->second);
      ++im.hits;
      tlsSawHit = true;
      obs::MetricsRegistry::global().counter("frontend_cache.hits").add();
      return im.lru.front().fn;
    }
    ++im.misses;
    tlsSawMiss = true;
  }
  obs::MetricsRegistry::global().counter("frontend_cache.misses").add();

  // Compile outside the lock: concurrent misses on different keys must not
  // serialize on each other. Two racing misses on the same key both
  // compile; the second insert wins and the loser's copy is dropped —
  // wasteful but correct, and sweeps only race on a key they share after
  // it is already cached.
  obs::TraceSpan span("frontend.compile", top);
  // compileBdl ends by verifying the function it lowered.
  Function fn = compileBdlOrThrow(source, top);
  if (opt != OptLevel::None) optPipeline(opt).run(fn);
  auto shared = std::make_shared<const Function>(std::move(fn));

  std::lock_guard<std::mutex> lk(im.m);
  auto it = im.index.find(key);
  if (it != im.index.end()) {
    im.lru.splice(im.lru.begin(), im.lru, it->second);
    return im.lru.front().fn;
  }
  im.lru.push_front(Impl::Entry{key, shared});
  im.index[key] = im.lru.begin();
  while (im.lru.size() > kCapacity) {
    im.index.erase(im.lru.back().key);
    im.lru.pop_back();
  }
  return shared;
}

void FrontendCache::clearThreadStats() { tlsSawHit = tlsSawMiss = false; }
bool FrontendCache::threadSawHit() { return tlsSawHit; }
bool FrontendCache::threadSawMiss() { return tlsSawMiss; }

void FrontendCache::clear() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.m);
  im.lru.clear();
  im.index.clear();
}

std::size_t FrontendCache::size() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.m);
  return im.lru.size();
}

std::size_t FrontendCache::hits() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.m);
  return im.hits;
}

std::size_t FrontendCache::misses() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.m);
  return im.misses;
}

}  // namespace mphls
