//! The paper's Figures 4 and 5: authentication into an SSO-enabled
//! XDMoD federation.
//!
//! - Fig. 4: one instance, two user groups — Group R signs on with local
//!   XDMoD passwords, Group S through web SSO (Shibboleth-style SAML).
//! - Fig. 5: a federation where satellites use different IdPs, the hub
//!   accepts multiple SSO sources, and one satellite delegates
//!   authentication to the hub entirely.
//! - §II-D4: the same human appears as different users on different
//!   instances; the hub's identity map de-duplicates them.
//!
//! ```text
//! cargo run --example sso_federation
//! ```

use std::collections::BTreeMap;
use xdmod::auth::{
    AuthMode, GlobusIdp, IdentityProvider, InstanceAuth, LdapIdp, Role, ShibbolethIdp, User,
};
use xdmod::core::FederationHub;

fn main() {
    let now = 1_500_000_000;

    // ---- Figure 4: two auth paths into one instance -------------------
    let mut ccr = InstanceAuth::new("ccr-xdmod", AuthMode::ServiceProvider, false);
    // Group R: local accounts.
    ccr.enroll(
        User::member("ruth", "ruth@buffalo.edu", "buffalo.edu").with_role(Role::Pi),
        Some("ruths-password"),
    );
    // Group S: SSO via the campus Shibboleth IdP.
    let mut shib = ShibbolethIdp::new("shibboleth.buffalo.edu", "deployment-secret");
    shib.enroll(
        "sam",
        "sams-password",
        BTreeMap::from([
            ("email".to_owned(), "sam@buffalo.edu".to_owned()),
            ("department".to_owned(), "chemistry".to_owned()),
        ]),
    );
    ccr.trust_idp(&shib).expect("single SSO source allowed");

    let r_session = ccr
        .login_local("ruth", "ruths-password", now)
        .expect("local sign-on");
    println!(
        "Group R: {} signed on via {:?}",
        r_session.username, r_session.method
    );

    let assertion = shib
        .authenticate("sam", "sams-password", "ccr-xdmod", now)
        .expect("IdP authenticates");
    let s_session = ccr.login_sso(&assertion, now + 5).expect("SSO sign-on");
    println!(
        "Group S: {} signed on via {:?} (auto-provisioned, org={})",
        s_session.username,
        s_session.method,
        ccr.users().get("sam").expect("provisioned").organization
    );

    // ---- Figure 5: federation-wide authentication ---------------------
    // Satellite instances use different IdPs; the hub trusts them all.
    let mut globus = GlobusIdp::new("auth.globus.org", "xsede-secret");
    globus.register("sam.globus", "globus-pw");
    globus.link("sam.globus", "xsede_sam"); // account linking prerequisite
    let mut ldap = LdapIdp::new("ldap.cornell.edu", "cornell-secret");
    ldap.add_entry("sjones", "ldap-pw");

    let mut hub = FederationHub::new("federation-hub");
    hub.auth_mut().trust_idp(&shib).expect("multi-source hub");
    hub.auth_mut().trust_idp(&globus).expect("multi-source hub");
    hub.auth_mut().trust_idp(&ldap).expect("multi-source hub");
    println!("\nhub trusts 3 IdPs (multi-source SSO, §II-D3)");

    let a = globus
        .authenticate("sam.globus", "globus-pw", "federation-hub", now)
        .expect("globus auth");
    let hub_session = hub.auth_mut().login_sso(&a, now + 2).expect("hub SSO");
    println!(
        "federated user signed onto the hub as {} (subject is the linked XSEDE identity)",
        hub_session.username
    );

    // A satellite in delegated mode honors the hub's session.
    let mut delegated = InstanceAuth::new("ucsb-xdmod", AuthMode::IdentityProviderDelegated, false);
    delegated.enroll(
        User::member("xsede_sam", "sam@buffalo.edu", "buffalo.edu"),
        None,
    );
    let sat_session = delegated
        .login_delegated(&hub_session, now + 10)
        .expect("delegated sign-on");
    println!(
        "delegated satellite {} accepted the hub-authenticated user {}",
        sat_session.instance, sat_session.username
    );

    // ---- §II-D4: identity mapping across instances --------------------
    // The same human holds accounts on CCR and XSEDE; without mapping the
    // federation sees two users.
    let ids = hub.identity_map_mut();
    ids.register(
        "ccr-xdmod",
        &User::member("sam", "sam@buffalo.edu", "buffalo.edu"),
    );
    ids.register(
        "xsede-xdmod",
        &User::member("xsede_sam", "sam@buffalo.edu", "buffalo.edu"),
    );
    println!(
        "\nbefore identity mapping: {} persons in the federation",
        ids.person_count()
    );
    let proposals = ids.propose_merges();
    for p in &proposals {
        println!(
            "  merge proposal: {:?} <- {:?} ({})",
            p.keep, p.merge, p.evidence
        );
    }
    let merged = ids.auto_deduplicate();
    println!(
        "after identity mapping: {} person ({merged} merge applied)",
        ids.person_count()
    );
    assert_eq!(ids.person_count(), 1);
}
