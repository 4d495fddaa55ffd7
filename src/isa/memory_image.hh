/**
 * @file
 * Sparse, paged 64-bit word memory used for both a program's initial
 * data image and the functional executor's architectural memory state.
 */

#ifndef MCD_ISA_MEMORY_IMAGE_HH
#define MCD_ISA_MEMORY_IMAGE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace mcd {

/**
 * Byte-addressed sparse memory with 8-byte word granularity.
 *
 * Pages of 4 KB are allocated lazily; unwritten memory reads as zero.
 * Accesses must be 8-byte aligned: the mini-ISA only has 8-byte
 * loads and stores.
 */
class MemoryImage
{
  public:
    MemoryImage() = default;
    MemoryImage(MemoryImage &&) = default;
    MemoryImage &operator=(MemoryImage &&) = default;

    /** Deep copy (pages are owned uniquely). */
    MemoryImage(const MemoryImage &other) { *this = other; }

    MemoryImage &
    operator=(const MemoryImage &other)
    {
        if (this == &other)
            return *this;
        pages.clear();
        for (const auto &[key, p] : other.pages)
            pages.emplace(key, std::make_unique<Page>(*p));
        return *this;
    }

    /** Read the 64-bit word at an 8-byte-aligned byte address. */
    std::uint64_t
    readWord(std::uint64_t addr) const
    {
        const Page *p = findPage(addr);
        if (!p)
            return 0;
        return (*p)[wordIndex(addr)];
    }

    /** Write the 64-bit word at an 8-byte-aligned byte address. */
    void
    writeWord(std::uint64_t addr, std::uint64_t value)
    {
        page(addr)[wordIndex(addr)] = value;
    }

    /** Read a double stored at an 8-byte-aligned address. */
    double
    readDouble(std::uint64_t addr) const
    {
        std::uint64_t bits = readWord(addr);
        double d;
        static_assert(sizeof(d) == sizeof(bits));
        __builtin_memcpy(&d, &bits, sizeof(d));
        return d;
    }

    /** Write a double at an 8-byte-aligned address. */
    void
    writeDouble(std::uint64_t addr, double value)
    {
        std::uint64_t bits;
        __builtin_memcpy(&bits, &value, sizeof(bits));
        writeWord(addr, bits);
    }

    /** Number of allocated 4 KB pages. */
    std::size_t pageCount() const { return pages.size(); }

    /** Copy the contents of another image into this one. */
    void
    overlay(const MemoryImage &other)
    {
        for (const auto &[key, p] : other.pages) {
            Page &dst = *pages.try_emplace(
                key, std::make_unique<Page>()).first->second;
            for (std::size_t i = 0; i < p->size(); ++i) {
                if ((*p)[i])
                    dst[i] = (*p)[i];
            }
        }
    }

  private:
    static constexpr std::uint64_t pageShift = 12;
    static constexpr std::size_t wordsPerPage = 4096 / 8;

    using Page = std::array<std::uint64_t, wordsPerPage>;

    static std::size_t
    wordIndex(std::uint64_t addr)
    {
        return (addr >> 3) & (wordsPerPage - 1);
    }

    const Page *
    findPage(std::uint64_t addr) const
    {
        auto it = pages.find(addr >> pageShift);
        return it == pages.end() ? nullptr : it->second.get();
    }

    Page &
    page(std::uint64_t addr)
    {
        auto &slot = pages[addr >> pageShift];
        if (!slot) {
            slot = std::make_unique<Page>();
            slot->fill(0);
        }
        return *slot;
    }

    std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages;
};

} // namespace mcd

#endif // MCD_ISA_MEMORY_IMAGE_HH
