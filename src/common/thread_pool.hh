/**
 * @file
 * Fixed-size worker pool for embarrassingly parallel campaign work.
 *
 * The pool runs index-based batches (parallelFor): workers pull the
 * next index from the batch, in ascending order, until it is
 * exhausted. A caller that wants another claim order maps the index
 * through a permutation of its own (CampaignEngine::runCells()
 * claims its heaviest cells first this way). The calling
 * thread participates in its own batch, so a pool of size 1
 * executes entirely on the caller with no handoff, and results are
 * bit-identical for any pool size as long as the per-index work
 * derives all of its randomness from the index (see
 * Rng::substream).
 *
 * Several threads may call parallelFor on the same pool
 * concurrently (the campaign daemon runs every admitted job's
 * batches on one shared pool): each call owns an independent batch,
 * and workers claim indices round-robin across the active batches,
 * so concurrent batches share the pool fairly instead of queueing
 * behind each other. Completion of one batch never waits on
 * another; each caller returns as soon as its own indices have
 * drained.
 */

#ifndef DTANN_COMMON_THREAD_POOL_HH
#define DTANN_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dtann {

/** Fixed-size pool executing index batches across worker threads. */
class ThreadPool
{
  public:
    /**
     * @param threads total execution width including the calling
     *        thread; <= 0 resolves via resolveThreads(0)
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total execution width (workers + calling thread). */
    int size() const { return static_cast<int>(workers.size()) + 1; }

    /**
     * Run fn(0) .. fn(n-1), distributing indices over the pool.
     * Blocks until every index has completed. Indices are claimed
     * dynamically in ascending order, so long and short items mix
     * freely (long items placed first keep every worker busy to the
     * end); @p fn must
     * not assume any execution order. The first exception thrown by
     * @p fn is rethrown here after the batch drains. Thread-safe:
     * concurrent calls run as independent, fairly interleaved
     * batches.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /**
     * Resolve a requested thread count: a positive request wins,
     * otherwise DTANN_THREADS, otherwise the hardware concurrency.
     */
    static int resolveThreads(int requested);

  private:
    /** One parallelFor call in flight; owned by its caller's frame. */
    struct Batch
    {
        size_t size = 0;
        const std::function<void(size_t)> *fn = nullptr;
        size_t next = 0;    ///< next unclaimed index (guarded by mu)
        size_t running = 0; ///< threads currently inside fn
        std::exception_ptr firstError;
    };

    void workerLoop();
    /** Next batch with unclaimed indices, round-robin; or nullptr. */
    Batch *pickBatch();
    /** Run one claimed index of @p b; called without the lock. */
    void runIndex(Batch *b, size_t index);

    std::vector<std::thread> workers;

    std::mutex mu;
    std::condition_variable wake; ///< workers: claimable work exists
    std::condition_variable done; ///< callers: a batch drained
    std::vector<Batch *> batches; ///< active batches (callers' frames)
    size_t rrCursor = 0;          ///< fair-share rotation point
    bool stopping = false;
};

} // namespace dtann

#endif // DTANN_COMMON_THREAD_POOL_HH
