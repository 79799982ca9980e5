open Pbo
module Core = Engine.Solver_core

type rows = {
  cids : Core.cid list;
  cuts : Constr.t list;
  keep : (Lit.t -> bool) option;
}

type t = {
  value : int;
  omega_rows : rows Lazy.t;
  branch_hint : Lit.var option;
  cert : Proof.cert Lazy.t;
}

let none =
  {
    value = 0;
    omega_rows = Lazy.from_val { cids = []; cuts = []; keep = None };
    branch_hint = None;
    cert = lazy Proof.Cert_path;
  }

let omega engine ~path b =
  let r = Lazy.force b.omega_rows in
  Core.omega engine ?keep:r.keep ~path r.cids r.cuts

let omega_pl engine b = omega engine ~path:false b
let omega_bc engine b = omega engine ~path:true b

let trusted_value v =
  let c = int_of_float (ceil (v -. 1e-6)) in
  max c 0
