//! Traced-envelope wire properties: the trace block round-trips
//! exactly when sampled, vanishes when not, and never disturbs v1 or
//! contextless-v2 interop. Plus the `Traces` response record format.

use afforest_obs::reqtrace::{Span, TraceCtx};
use afforest_serve::protocol::{
    decode_request_traced, decode_response, encode_request, encode_request_traced,
    encode_request_v2, encode_response,
};
use afforest_serve::{Request, Response, TenantId, WireVersion};
use proptest::prelude::*;

/// Every byte a tenant name may contain.
const TENANT_CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";

fn arb_tenant() -> impl Strategy<Value = TenantId> {
    proptest::collection::vec(0usize..TENANT_CHARSET.len(), 1..=64).prop_map(|picks| {
        let name: String = picks.iter().map(|&i| TENANT_CHARSET[i] as char).collect();
        TenantId::new(&name).expect("charset-built name is valid")
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    let edges = proptest::collection::vec((any::<u32>(), any::<u32>()), 0..16);
    (
        0usize..13,
        any::<u32>(),
        any::<u32>(),
        edges,
        arb_tenant(),
        any::<u64>(),
    )
        .prop_map(|(sel, u, v, edges, name, vertices)| match sel {
            0 => Request::Connected(u, v),
            1 => Request::Component(u),
            2 => Request::ComponentSize(u),
            3 => Request::NumComponents,
            4 => Request::InsertEdges(edges),
            5 => Request::Stats,
            6 => Request::Metrics,
            7 => Request::Shutdown,
            8 => Request::CreateTenant { name, vertices },
            9 => Request::DropTenant { name },
            10 => Request::DumpTraces,
            11 => Request::Resolve(edges.iter().flat_map(|&(u, v)| [u, v]).collect()),
            _ => Request::ListTenants,
        })
}

/// A sampled context: trace ids are client-minted nonzero u64s, and a
/// zero id *means* unsampled, so the sampled strategy excludes it.
fn arb_sampled_ctx() -> impl Strategy<Value = TraceCtx> {
    (1u64..=u64::MAX, any::<u64>()).prop_map(|(trace_id, parent_span)| TraceCtx {
        trace_id,
        parent_span,
    })
}

fn arb_node_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..TENANT_CHARSET.len(), 0..32)
        .prop_map(|picks| picks.iter().map(|&i| TENANT_CHARSET[i] as char).collect())
}

fn arb_span() -> impl Strategy<Value = Span> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u16>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((trace_id, span_id, parent_span, stage), (arg, start_us, dur_ns))| Span {
                trace_id,
                span_id,
                parent_span,
                stage,
                arg,
                start_us,
                dur_ns,
            },
        )
}

proptest! {
    /// Sampled contexts survive the envelope byte-exactly, alongside
    /// the tenant and request.
    #[test]
    fn traced_envelope_round_trips(
        tenant in arb_tenant(),
        ctx in arb_sampled_ctx(),
        req in arb_request(),
    ) {
        let payload = encode_request_traced(&tenant, ctx, &req);
        let (ver, got_tenant, got_ctx, got_req) =
            decode_request_traced(&payload).expect("traced payload decodes");
        prop_assert_eq!(ver, WireVersion::V2);
        prop_assert_eq!(got_tenant, tenant);
        prop_assert_eq!(got_ctx, ctx);
        prop_assert_eq!(got_req, req);
    }

    /// An unsampled context is *omitted*, not encoded-as-zero: the
    /// payload is byte-identical to the contextless v2 encoding, and
    /// decoding yields `TraceCtx::NONE`.
    #[test]
    fn unsampled_envelope_is_contextless_v2(tenant in arb_tenant(), req in arb_request()) {
        let traced = encode_request_traced(&tenant, TraceCtx::NONE, &req);
        let plain = encode_request_v2(&tenant, &req);
        prop_assert_eq!(&traced, &plain);
        let (ver, got_tenant, got_ctx, got_req) =
            decode_request_traced(&traced).expect("contextless payload decodes");
        prop_assert_eq!(ver, WireVersion::V2);
        prop_assert_eq!(got_tenant, tenant);
        prop_assert_eq!(got_ctx, TraceCtx::NONE);
        prop_assert_eq!(got_req, req);
    }

    /// v1 interop: bare payloads from pre-envelope clients decode to
    /// the default tenant with no trace context, request intact.
    #[test]
    fn v1_payloads_decode_with_no_context(req in arb_request()) {
        let payload = encode_request(&req);
        let (ver, tenant, ctx, got_req) =
            decode_request_traced(&payload).expect("v1 payload decodes");
        prop_assert_eq!(ver, WireVersion::V1);
        prop_assert_eq!(tenant, TenantId::default_tenant());
        prop_assert_eq!(ctx, TraceCtx::NONE);
        prop_assert_eq!(got_req, req);
    }

    /// `Traces` responses round-trip their node name and fixed-width
    /// span records.
    #[test]
    fn traces_response_round_trips(
        node in arb_node_name(),
        spans in proptest::collection::vec(arb_span(), 0..48),
    ) {
        let resp = Response::Traces {
            node: node.clone(),
            spans: spans.clone(),
        };
        let payload = encode_response(&resp);
        let got = decode_response(&payload).expect("traces payload decodes");
        prop_assert_eq!(got, resp);
    }
}

/// Node names longer than the one-byte length prefix allows are
/// truncated at encode time, never rejected or torn mid-frame.
#[test]
fn traces_node_name_truncates_at_255_bytes() {
    let long = "n".repeat(300);
    let resp = Response::Traces {
        node: long.clone(),
        spans: vec![],
    };
    let payload = encode_response(&resp);
    match decode_response(&payload).expect("truncated-node payload decodes") {
        Response::Traces { node, spans } => {
            assert_eq!(node, long[..255]);
            assert!(spans.is_empty());
        }
        other => panic!("expected Traces, got {other:?}"),
    }
}
