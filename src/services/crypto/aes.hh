/**
 * @file
 * AES-128 (FIPS-197): key expansion, block encrypt/decrypt, and
 * CBC-mode helpers, used by the crypto service of the paper's
 * web-server experiment. The bytes are computed for real (validated
 * against the FIPS-197 and NIST SP 800-38A vectors in the tests).
 * CBC encryption runs on the host's AES instructions when CPUID
 * reports them (x86 only) and on the portable T-table code otherwise;
 * both give the same ciphertext. The simulated compute cost is
 * costCycles(), charged per byte by the caller, and does not depend
 * on which host path ran.
 */

#ifndef XPC_SERVICES_CRYPTO_AES_HH
#define XPC_SERVICES_CRYPTO_AES_HH

#include <array>
#include <cstdint>
#include <cstddef>

namespace xpc::services::crypto {

/** AES-128 cipher context with a precomputed key schedule. */
class Aes128
{
  public:
    static constexpr size_t blockBytes = 16;
    static constexpr size_t keyBytes = 16;

    /** Expand @p key into the round-key schedule. */
    explicit Aes128(const uint8_t key[keyBytes]);

    /** Encrypt one 16-byte block (ECB primitive). */
    void encryptBlock(const uint8_t in[blockBytes],
                      uint8_t out[blockBytes]) const;

    /** Decrypt one 16-byte block. */
    void decryptBlock(const uint8_t in[blockBytes],
                      uint8_t out[blockBytes]) const;

    /**
     * CBC-encrypt @p len bytes in place. @p len must be a multiple of
     * the block size (callers zero-pad). Uses the host's AES
     * instructions when present, else encryptCbcTable().
     */
    void encryptCbc(uint8_t *data, size_t len,
                    const uint8_t iv[blockBytes]) const;

    /**
     * The portable CBC encryption (T-table rounds): the reference the
     * host-AES path of encryptCbc() must match byte for byte.
     */
    void encryptCbcTable(uint8_t *data, size_t len,
                         const uint8_t iv[blockBytes]) const;

    /** CBC-decrypt @p len bytes in place. */
    void decryptCbc(uint8_t *data, size_t len,
                    const uint8_t iv[blockBytes]) const;

    /**
     * Simulated cost of processing @p len bytes on an in-order core
     * (an optimized T-table implementation runs at roughly a dozen
     * cycles per byte).
     */
    static uint64_t
    costCycles(uint64_t len)
    {
        return len * 12;
    }

  private:
    static constexpr int rounds = 10;
    std::array<uint32_t, 4 * (rounds + 1)> roundKeys;
};

} // namespace xpc::services::crypto

#endif // XPC_SERVICES_CRYPTO_AES_HH
