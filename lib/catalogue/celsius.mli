(** CELSIUS — temperature unit conversion as a bijective bx, computed over
    exact rationals so the inverse laws hold on the nose (floating point
    would violate them, which is itself an instructive variant). *)

val to_fahrenheit : Bx_models.Rational.t -> Bx_models.Rational.t
(** f = c * 9/5 + 32. *)

val iso : (Bx_models.Rational.t, Bx_models.Rational.t) Bx.Iso.t
val bx : (Bx_models.Rational.t, Bx_models.Rational.t) Bx.Symmetric.t

val celsius_space : Bx_models.Rational.t Bx.Model.t
val fahrenheit_space : Bx_models.Rational.t Bx.Model.t

val template : Bx_repo.Template.t
