(** {!Bx_catalogue.Composers_string} rebuilt on the copying reference
    engine. *)

val line : Slens_ref.t
(** One record's lens, for rebuilding the other alignment variants. *)

val lens : Slens_ref.t
(** {!Bx_catalogue.Composers_string.lens}: the baseline for the P7
    benchmark series and the oracle of the engine-equivalence tests. *)
