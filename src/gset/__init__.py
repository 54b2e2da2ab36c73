"""gSET: dynamic per-request authorization and payment, split four ways.

A requester authorizes a spend without telling the provider who pays;
a trust manager enforces the spending limit without learning what was
bought; an account provider holds and settles credit without seeing
either side.  Dual signatures bind the halves together, pairwise MACs
authenticate the server-to-server legs, a sealed envelope carries the
payment past the provider, and single-use tokens, tickets, and nonces
keep every step from happening twice.

The package ships the actors, the wire codec, a credit ledger, a
deterministic simulated network with an adversary, and a scenario CLI.
"""

from .actors import (
    AccountProvider,
    AccountProviderConfig,
    Event,
    EventKind,
    ProviderConfig,
    RequesterConfig,
    Send,
    ServiceProvider,
    ServiceRequester,
    TrustManager,
    TrustManagerConfig,
)
from .codec import (
    CodecError,
    DecodeError,
    EncodeError,
    MessageTypeError,
    ValidationError,
    authenticator_field_name,
    canonical_message,
    decode,
    decode_authenticated,
    decode_stream,
    encode,
    encode_authenticated,
    peek_type,
    registered_types,
    signing_payload,
    signing_payload_from,
)
from .crypto import (
    MAC_SIZE,
    PRIVATE_KEY_SIZE,
    PUBLIC_KEY_SIZE,
    CryptoError,
    Digest,
    EnvelopeError,
    EnvelopeIntegrityError,
    InvalidIdentityError,
    KeyPair,
    SealedEnvelope,
    Signature,
    generate_keypair,
    hash_bytes,
    mac,
    mac_keys,
    mac_ok,
    make_dual_signature,
    open_envelope,
    seal,
    sign,
    verify,
    verify_dual,
)
from .ledger import (
    Ledger,
    LedgerAccountState,
    LedgerError,
    LedgerHoldState,
    LedgerSnapshot,
)
from .messages import (
    AuthDecision,
    AuthOutcome,
    AuthorizationRequest,
    AuthorizeAndHold,
    CaptureRequest,
    CaptureResponse,
    CaptureToken,
    DenialReason,
    HoldRequest,
    HoldResponse,
    ObjectUpload,
    OrderInfo,
    PaymentInfo,
    PriceQuote,
    PriceRequest,
    QuoteDenial,
    ServiceComplete,
    ServiceGrant,
    SettleRequest,
    SettleResponse,
    Ticket,
    TicketRedeemRequest,
    TicketRedeemResponse,
    UploadManifest,
    UsageDescriptor,
    build_maced,
    build_signed,
    verify_maced,
    verify_signed,
)
from .scenario import (
    RunReport,
    Scenario,
    ScenarioConfig,
    ScenarioError,
    build_scenario,
    run_storage_scenario,
)
from .simnet import (
    Action,
    Adversary,
    DivergenceReport,
    PrivacyHit,
    PrivacyMarkers,
    PrivacyReport,
    SimnetError,
    Transcript,
    TranscriptMeta,
    TranscriptRecord,
    WireMessage,
    assert_privacy,
    replay_transcript,
    run_scenario,
    scan_for_markers,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
