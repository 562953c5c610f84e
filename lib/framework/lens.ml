exception Error of string

type ('s, 'v) t = {
  name : string;
  get : 's -> 'v;
  put : 'v -> 's -> 's;
  create : 'v -> 's;
}

let make ~name ~get ~put ~create = { name; get; put; create }
let error fmt = Format.kasprintf (fun msg -> raise (Error msg)) fmt

let id =
  { name = "id"; get = Fun.id; put = (fun v _ -> v); create = Fun.id }

let compose l1 l2 =
  {
    name = Printf.sprintf "%s; %s" l1.name l2.name;
    get = (fun s -> l2.get (l1.get s));
    put = (fun v s -> l1.put (l2.put v (l1.get s)) s);
    create = (fun v -> l1.create (l2.create v));
  }

let of_iso (iso : ('a, 'b) Iso.t) =
  {
    name = iso.Iso.name;
    get = iso.Iso.fwd;
    put = (fun v _ -> iso.Iso.bwd v);
    create = iso.Iso.bwd;
  }

let first ~default =
  {
    name = "fst";
    get = (fun (a, _) -> a);
    put = (fun a (_, b) -> (a, b));
    create = (fun a -> (a, default));
  }

let second ~default =
  {
    name = "snd";
    get = (fun (_, b) -> b);
    put = (fun b (a, _) -> (a, b));
    create = (fun b -> (default, b));
  }

let pair l1 l2 =
  {
    name = Printf.sprintf "(%s * %s)" l1.name l2.name;
    get = (fun (s1, s2) -> (l1.get s1, l2.get s2));
    put = (fun (v1, v2) (s1, s2) -> (l1.put v1 s1, l2.put v2 s2));
    create = (fun (v1, v2) -> (l1.create v1, l2.create v2));
  }

let const ~view ~view_equal ~default =
  {
    name = "const";
    get = (fun _ -> view);
    put =
      (fun v s ->
        if view_equal v view then s
        else error "const lens: put view differs from the constant");
    create =
      (fun v ->
        if view_equal v view then default
        else error "const lens: create view differs from the constant");
  }

(* Positional alignment: pad with [create], truncate surplus sources. *)
let list_map l =
  let rec put_all vs ss =
    match (vs, ss) with
    | [], _ -> []
    | v :: vs', s :: ss' -> l.put v s :: put_all vs' ss'
    | v :: vs', [] -> l.create v :: put_all vs' []
  in
  {
    name = Printf.sprintf "map %s" l.name;
    get = List.map l.get;
    put = put_all;
    create = List.map l.create;
  }

(* Key-based (resourceful) alignment.  For each view element in order, the
   first not-yet-consumed source element with the same key is reused, so its
   hidden data survives reordering of the view. *)
let list_key_map ~source_key ~view_key l =
  let put vs ss =
    let consumed = Array.make (List.length ss) false in
    let ss_arr = Array.of_list ss in
    let find_source k =
      let rec scan i =
        if i >= Array.length ss_arr then None
        else if (not consumed.(i)) && source_key ss_arr.(i) = k then (
          consumed.(i) <- true;
          Some ss_arr.(i))
        else scan (i + 1)
      in
      scan 0
    in
    let put_one v =
      match find_source (view_key v) with
      | Some s -> l.put v s
      | None -> l.create v
    in
    List.map put_one vs
  in
  {
    name = Printf.sprintf "keymap %s" l.name;
    get = List.map l.get;
    put;
    create = List.map l.create;
  }

let lcs_pairs ~eq n m =
  let table = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      table.(i).(j) <-
        (if eq i j then 1 + table.(i + 1).(j + 1)
         else max table.(i + 1).(j) table.(i).(j + 1))
    done
  done;
  let rec walk i j acc =
    if i >= n || j >= m then List.rev acc
    else if eq i j then walk (i + 1) (j + 1) ((i, j) :: acc)
    else if table.(i + 1).(j) >= table.(i).(j + 1) then walk (i + 1) j acc
    else walk i (j + 1) acc
  in
  walk 0 0 []

let list_diff_map ~source_key ~view_key l =
  let put vs ss =
    let s_arr = Array.of_list ss in
    let v_arr = Array.of_list vs in
    let skeys = Array.map source_key s_arr in
    let vkeys = Array.map view_key v_arr in
    let matched =
      lcs_pairs
        ~eq:(fun i j -> skeys.(i) = vkeys.(j))
        (Array.length skeys) (Array.length vkeys)
    in
    let source_for = Hashtbl.create 16 in
    List.iter (fun (i, j) -> Hashtbl.replace source_for j i) matched;
    List.mapi
      (fun j v ->
        match Hashtbl.find_opt source_for j with
        | Some i -> l.put v s_arr.(i)
        | None -> l.create v)
      vs
  in
  {
    name = Printf.sprintf "diffmap %s" l.name;
    get = List.map l.get;
    put;
    create = List.map l.create;
  }

let filter ~keep ~default:_ =
  let get = List.filter keep in
  let put vs ss =
    List.iter
      (fun v ->
        if not (keep v) then
          error "filter lens: put view contains a hidden element")
      vs;
    (* Walk the old source, replacing kept elements by the updated views in
       order; hidden elements stay in place.  Surplus views append, surplus
       kept sources are dropped. *)
    let rec weave vs ss =
      match (vs, ss) with
      | vs, [] -> vs
      | vs, s :: ss' when not (keep s) -> s :: weave vs ss'
      | v :: vs', _ :: ss' -> v :: weave vs' ss'
      | [], _ :: ss' -> weave [] ss'
    in
    weave vs ss
  in
  { name = "filter"; get; put; create = Fun.id }

let get_put_law space l =
  Law.make
    ~name:(l.name ^ ":GetPut")
    ~description:"put (get s) s = s" (fun s ->
      let s' = l.put (l.get s) s in
      Law.require (space.Model.equal s s') "put (get s) s = %a, expected %a"
        space.Model.pp s' space.Model.pp s)

let put_get_law vspace l =
  Law.make
    ~name:(l.name ^ ":PutGet")
    ~description:"get (put v s) = v" (fun (s, v) ->
      let v' = l.get (l.put v s) in
      Law.require (vspace.Model.equal v v') "get (put v s) = %a, expected %a"
        vspace.Model.pp v' vspace.Model.pp v)

let create_get_law vspace l =
  Law.make
    ~name:(l.name ^ ":CreateGet")
    ~description:"get (create v) = v" (fun v ->
      let v' = l.get (l.create v) in
      Law.require (vspace.Model.equal v v') "get (create v) = %a, expected %a"
        vspace.Model.pp v' vspace.Model.pp v)

let put_put_law space l =
  Law.make
    ~name:(l.name ^ ":PutPut")
    ~description:"put v' (put v s) = put v' s" (fun (s, v, v') ->
      let lhs = l.put v' (l.put v s) in
      let rhs = l.put v' s in
      Law.require (space.Model.equal lhs rhs)
        "put v' (put v s) = %a but put v' s = %a" space.Model.pp lhs
        space.Model.pp rhs)

let well_behaved_laws sspace vspace l =
  Law.conj
    ~name:(l.name ^ ":well-behaved")
    ~description:"GetPut and PutGet"
    [
      Law.contramap (fun (s, _) -> s) (get_put_law sspace l);
      put_get_law vspace l;
    ]
